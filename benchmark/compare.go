package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// minRuns is the fewest runs per workload a result set may hold: quartiles
// of fewer say nothing about the run-to-run spread.
const minRuns = 5

// readResultSet loads the end-to-end records of a result-set file (one JSON
// record per line, as -record appends them), grouped by workload.
func readResultSet(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string][]*record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := new(record)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			set[r.Workload] = append(set[r.Workload], r)
		}
	}
	return set, sc.Err()
}

// host is the part of a record's provenance that must agree before two
// runs may be compared.
func (r *record) host() string {
	return fmt.Sprintf("profile=%s seconds=%d nproc=%d gomaxprocs=%d go=%s sync=%s",
		r.Profile, r.Seconds, r.NProc, r.GOMAXPROCS, r.GoVersion, r.SyncPolicy)
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and quartiles and the relative change from a to b, and reports
// whether any metric worsened by more than its bound. A metric within its
// bound whose run-to-run spread is wider than the bound is "unresolved",
// not "unchanged": the runs cannot tell.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3]\tb median [q1, q3]\tchange\tbound\tverdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) < minRuns || len(rb) < minRuns {
			return false, fmt.Errorf("%s: %d and %d runs, need at least %d in each set", wl.name, len(ra), len(rb), minRuns)
		}
		for _, r := range append(append([]*record(nil), ra...), rb...) {
			if r.host() != ra[0].host() {
				return false, fmt.Errorf("%s: runs from different configurations are not comparable:\n  %s\n  %s", wl.name, ra[0].host(), r.host())
			}
			if !r.Correct {
				return false, fmt.Errorf("%s: seed %d has %d failed ops; a result set with failures proves nothing", wl.name, r.Seed, r.Failed)
			}
		}
		for _, m := range endToEnd {
			va, vb := values(ra, m.name), values(rb, m.name)
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := (b2 - a2) / a2
			worse := change
			if m.better == "higher" {
				worse = -change
			}
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "unchanged"
			switch {
			case worse > m.bound:
				verdict, regressed = "REGRESSED", true
			case spread > m.bound && !allBetter(va, vb, m.better):
				verdict = "unresolved (spread " + pct(spread) + ")"
			case worse < -m.bound:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%s\t%s\t%s\n",
				wl.name, m.name, a2, a1, a3, b2, b1, b3, pct(change), fmt.Sprintf("%.0f%%", 100*m.bound), verdict)
		}
	}
	return regressed, tw.Flush()
}

func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

func values(rs []*record, metric string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[metric].Value
	}
	return v
}

// allBetter reports whether every run of b reads better than every run of
// a.
func allBetter(a, b []float64, better string) bool {
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	if better == "higher" {
		return loB > hiA
	}
	return hiB < loA
}
