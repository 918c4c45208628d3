package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/wal"
)

// runWAL is the `ordlog wal <verify|dump> <dir>` inspection mode: offline
// tooling over one durability directory, exiting 0 only when the state on
// disk is sound.
//
//	verify  strict end-to-end check (core.Verify): every record's CRC and
//	        SHA-256 chain hash from the genesis seed (a single flipped byte
//	        anywhere fails, a torn tail too), every checkpoint consistent
//	        with the chain, and every checkpoint's program folded with the
//	        records after it as recovery folds them
//	dump    print the checkpoints and every record, one line each
func runWAL(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ordlog wal <verify|dump> <dir>")
		return 2
	}
	cmd, dir := args[0], args[1]
	switch cmd {
	case "verify":
		res, err := core.Verify(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ordlog: wal verify:", err)
			return 1
		}
		fmt.Printf("ok: tenant %q, %d records in %d segments (first seq %d), %d checkpoints, version %d, chain head %.12s…\n",
			res.Name, res.Records, res.Segments, res.FirstSeq, res.Checkpoints, res.Version, res.Head)
		return 0
	case "dump":
		// Tolerant read: a dump of a crashed directory shows the surviving
		// records and the stale checkpoints, flagging the torn tail instead
		// of refusing. Rotated layouts dump the same way a single wal.log
		// does.
		d, err := wal.Open(dir, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ordlog: wal dump:", err)
			return 1
		}
		for _, cp := range d.Checkpoints {
			fmt.Printf("checkpoint v%-6d seq=%-6d name=%q chain=%.12s… program=%d bytes\n",
				cp.Version, cp.Seq, cp.Name, cp.ChainHead, len(cp.Program))
		}
		for _, cp := range d.Stale {
			fmt.Printf("stale checkpoint v%d seq=%d (its records are not in the log; recovery removes it)\n", cp.Version, cp.Seq)
		}
		if d.First > 1 {
			fmt.Printf("retained chain starts at seq %d (%d segments; earlier records pruned by retention)\n", d.First, d.Segments)
		} else if d.Segments > 1 {
			fmt.Printf("%d segments\n", d.Segments)
		}
		for _, r := range d.Records {
			fmt.Printf("record %-6d v%-6d %-7s comp=%-12q facts=%-3d hash=%.12s…\n",
				r.Seq, r.Version, r.Op, r.Comp, len(r.Facts), r.Hash)
			for _, f := range r.Facts {
				fmt.Printf("    %s\n", f)
			}
		}
		if d.Torn {
			fmt.Printf("torn tail after %d intact records (crash artifact; recovery truncates %s at byte %d)\n", len(d.Records), d.TornPath, d.TornGood)
		}
		return 0
	default:
		fmt.Fprintf(os.Stderr, "ordlog: unknown wal command %q (want verify or dump)\n", cmd)
		return 2
	}
}
