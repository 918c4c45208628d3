// Command benchmark is the repository's one serving benchmark: four seeded
// workloads driven through serve.Daemon's HTTP handler in-process by one
// closed-loop client, six end-to-end metrics per workload, and a traced run
// that attributes the time to the layers from outside. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract.
//
//	go run ./benchmark -workload query-hot -seed 1
//	go run ./benchmark -workload mixed-rw -seed 1 -trace 1
//	go run ./benchmark -compare benchmark/out/a.jsonl benchmark/out/b.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// benchProcs pins GOMAXPROCS: one core for the client and the request it
// waits on, one for the garbage collector and the WAL flusher. Results
// carry it, and runs with different values are never compared.
const benchProcs = 2

func main() {
	workload := flag.String("workload", "", "workload to run: query-hot, query-cold, update-churn or mixed-rw")
	seed := flag.Int64("seed", 1, "seed of the op stream")
	seconds := flag.Int("seconds", refSeconds, "size of the run: op counts scale so the timed phase takes about this long on the reference host")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json instead of the end-to-end metrics")
	short := flag.Bool("short", false, "smoke-test sizes (numbers mean nothing)")
	out := flag.String("out", "benchmark/out", "directory for traces and scratch durability directories")
	recordTo := flag.String("record", "", "append the full run record as one JSON line to this result-set file")
	compare := flag.Bool("compare", false, "compare two result-set files given as arguments instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result-set files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	runtime.GOMAXPROCS(benchProcs)
	rc := runConfig{workload: *workload, prof: fullProfile, seed: *seed, seconds: *seconds, outDir: *out, log: os.Stdout}
	if *short {
		rc.prof = shortProfile
	}
	if rc.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fatal(err)
	}
	run := runServe
	if *trace != 0 {
		run = runTrace
	}
	rec, err := run(context.Background(), rc)
	if err != nil {
		fatal(err)
	}
	if *trace == 0 && !*short { // smoke sizes are too small to be stationary
		if err := rec.guard(); err != nil {
			fatal(err)
		}
	}
	if *recordTo != "" {
		if err := rec.appendTo(*recordTo); err != nil {
			fatal(err)
		}
	}
	line, err := rec.resultLine()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
