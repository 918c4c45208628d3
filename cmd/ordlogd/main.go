// Command ordlogd is the long-lived serving daemon: it hosts many named
// ordered-logic programs as tenants behind an HTTP/JSON API (see
// internal/serve for the wire protocol and DESIGN.md §11 for the design).
// Each tenant is one engine with atomic snapshot versioning; reads pin a
// snapshot, writes publish new versions, admission is bounded per tenant,
// and ?timeout= deadlines degrade to partial results instead of errors.
//
// Usage:
//
//	ordlogd [flags]
//
//	-addr a            listen address (default localhost:4040; :0 picks an
//	                   ephemeral port, printed to stderr)
//	-load name=path    preload a tenant from a .olp file before serving
//	                   (repeatable; embedded queries are ignored)
//	-inflight n        per-tenant admission bound (default 64, 0 = unbounded)
//	-retain n          snapshot versions kept pinnable per tenant (default 8)
//	-default-timeout d deadline for requests without ?timeout= (0 = none)
//	-max-timeout d     cap on ?timeout= (default 30s)
//	-grace d           drain budget for graceful shutdown (default 10s)
//	-goal-directed     answer /query and /prove from per-goal slices of the
//	                   ground program (cached per snapshot, keyed by the goal's
//	                   binding pattern; ?version= pinning is honoured and
//	                   updates invalidate automatically)
//	-data-dir p        make tenants durable: per-tenant write-ahead logs
//	                   under p/<tenant>, crash recovery on boot (every
//	                   tenant with WAL state is restored before -load
//	                   runs; preloads of recovered names are skipped so a
//	                   restart never wipes recovered updates), ?as_of=
//	                   time-travel reads over the logged history
//	-sync p            WAL fsync policy: interval (default; background
//	                   flush) or always (fsync per update)
//	-checkpoint-every n  WAL checkpoint cadence in update batches
//	                   (default 256)
//	-rotate-records n  rotate each tenant's WAL to a fresh segment every n
//	                   records (0 = single-file layout)
//	-rotate-bytes n    rotate by segment size in bytes (0 = never)
//	-keep-checkpoints n  retain only the newest n checkpoints per tenant and
//	                   prune the WAL segments they cover (0 = keep all)
//	-compact-every n   compact each tenant's snapshot every n incremental
//	                   updates (0 = never by count)
//	-compact-ratio r   compact when the dead-instance fraction reaches r
//	                   (0 = never by ratio)
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener closes,
// in-flight requests get up to -grace to finish, the write-ahead logs are
// flushed and closed, and the exit status reports whether the drain
// completed (0) or had to cut connections (1).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ordlog "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wal"
)

// loadFlags collects repeated -load name=path pairs in order.
type loadFlags []struct{ name, path string }

func (l *loadFlags) String() string { return fmt.Sprintf("%d tenants", len(*l)) }

func (l *loadFlags) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", s)
	}
	*l = append(*l, struct{ name, path string }{name, path})
	return nil
}

func main() {
	addr := flag.String("addr", "localhost:4040", "listen address")
	inflight := flag.Int("inflight", 64, "per-tenant admission bound (0 = unbounded)")
	retain := flag.Int("retain", 8, "snapshot versions kept pinnable per tenant")
	defaultTimeout := flag.Duration("default-timeout", 0, "deadline for requests without ?timeout= (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on ?timeout=")
	grace := flag.Duration("grace", 10*time.Second, "drain budget for graceful shutdown")
	goalDirected := flag.Bool("goal-directed", false, "answer /query and /prove from per-goal slices of the ground program")
	dataDir := flag.String("data-dir", "", "durability root: per-tenant write-ahead logs + crash recovery ('' = memory-only)")
	syncFlag := flag.String("sync", "interval", "WAL fsync policy: always or interval")
	checkpointEvery := flag.Int("checkpoint-every", 0, "WAL checkpoint cadence in update batches (0 = default 256)")
	rotateRecords := flag.Int("rotate-records", 0, "WAL segment rotation cap in records (0 = single file)")
	rotateBytes := flag.Int64("rotate-bytes", 0, "WAL segment rotation cap in bytes (0 = never)")
	keepCheckpoints := flag.Int("keep-checkpoints", 0, "checkpoints retained per tenant, pruning covered WAL segments (0 = keep all)")
	compactEvery := flag.Int("compact-every", 0, "snapshot compaction cadence in incremental updates (0 = never by count)")
	compactRatio := flag.Float64("compact-ratio", 0, "snapshot compaction dead-instance ratio threshold (0 = never by ratio)")
	var loads loadFlags
	flag.Var(&loads, "load", "preload tenant from file: name=path (repeatable)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ordlogd [flags]")
		flag.Usage()
		os.Exit(2)
	}
	syncPolicy, err := wal.ParseSyncPolicy(*syncFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordlogd: -sync:", err)
		os.Exit(2)
	}

	engCfg := core.Config{GoalDirected: *goalDirected, CompactEvery: *compactEvery, CompactRatio: *compactRatio}
	d := serve.New(serve.Config{
		InFlight:        *inflight,
		Retain:          *retain,
		DefaultTimeout:  *defaultTimeout,
		MaxTimeout:      *maxTimeout,
		Engine:          engCfg,
		DataDir:         *dataDir,
		CheckpointEvery: *checkpointEvery,
		Sync:            syncPolicy,
		RotateRecords:   *rotateRecords,
		RotateBytes:     *rotateBytes,
		KeepCheckpoints: *keepCheckpoints,
	})
	recovered := map[string]bool{}
	if names, err := d.RecoverTenants(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "ordlogd: recover -data-dir %s: %v\n", *dataDir, err)
		os.Exit(1)
	} else {
		for _, n := range names {
			recovered[n] = true
			fmt.Fprintf(os.Stderr, "ordlogd: recovered tenant %q from %s\n", n, *dataDir)
		}
	}
	for _, l := range loads {
		if recovered[l.name] {
			// The WAL already holds this tenant's history, updates included;
			// re-loading the file would reset it to the file's genesis.
			fmt.Fprintf(os.Stderr, "ordlogd: tenant %q recovered from -data-dir, skipping -load %s\n", l.name, l.path)
			continue
		}
		res, err := ordlog.ParseFile(l.path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ordlogd: -load %s: %v\n", l.name, err)
			os.Exit(1)
		}
		if _, _, err := d.Registry().Put(context.Background(), l.name, res.Program, d.TenantConfig(l.name)); err != nil {
			fmt.Fprintf(os.Stderr, "ordlogd: -load %s: %v\n", l.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ordlogd: loaded tenant %q from %s\n", l.name, l.path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordlogd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ordlogd: serving %d tenants on http://%s\n", d.Registry().Len(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := serve.Serve(ctx, serve.NewHTTPServer(d.Handler()), ln, *grace)
	// Flush and close the write-ahead logs after the drain: every acked
	// in-flight write reaches disk before exit, whatever the sync policy.
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "ordlogd: close write-ahead logs:", err)
		os.Exit(1)
	}
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, "ordlogd:", serveErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ordlogd: drained, bye")
}
