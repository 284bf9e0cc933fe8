package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare mode needs: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares untraced results of a parent commit and a change,
// workload by workload and metric by metric, by the rule of the
// choosing-metrics guide (§8): a gain needs the change to win at least nine
// tenths of the pairs and the medians to differ by more than the parent's
// own quartile spread; no regression means the change's median is not worse
// than the parent's by more than the metric's bound, and where the parent's
// spread is wider than the bound the metric is unresolved unless every
// change run beats every parent run.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("e2ebench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare [--bench BENCHMARK.json] <parent-results-dir> <change-results-dir>")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench compare: %v\n", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench compare: %s: %v\n", *benchPath, err)
		return 1
	}
	var sides [2]map[string][]*record
	for i, dir := range fs.Args() {
		recs, err := loadRecords(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench compare: %v\n", err)
			return 1
		}
		sides[i] = map[string][]*record{}
		for _, r := range recs {
			if !r.Meta.Traced {
				sides[i][r.Meta.Workload] = append(sides[i][r.Meta.Workload], r)
			}
		}
	}
	var names []string
	for wl := range sides[1] {
		if len(sides[0][wl]) > 0 {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "e2ebench compare: no workload has results on both sides")
		return 1
	}
	fmt.Fprintf(w, "%-15s %-13s %-34s %-34s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range names {
		par, chg := sides[0][wl], sides[1][wl]
		pairs := pairBySeed(par, chg)
		for _, m := range spec.EndToEnd {
			pv, cv := values(par, m.Name), values(chg, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			wins, n := 0, 0
			for _, p := range pairs {
				a, okA := p[0].Metrics[m.Name]
				b, okB := p[1].Metrics[m.Name]
				if !okA || !okB {
					continue
				}
				n++
				if better(b.Value, a.Value, m.Better) {
					wins++
				}
			}
			p1, p2, p3 := quartiles(pv)
			c1, c2, c3 := quartiles(cv)
			v := verdict(pv, cv, wins, n, m.Better, m.Bound)
			fmt.Fprintf(w, "%-15s %-13s %-34s %-34s %-7s %s\n", wl, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", p2, p1, p3, len(pv)),
				fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", c2, c1, c3, len(cv)),
				fmt.Sprintf("%d/%d", wins, n), v)
		}
	}
	return 0
}

// pairBySeed pairs the parent's and the change's runs of the same seed, in
// the order they were saved.
func pairBySeed(par, chg []*record) [][2]*record {
	bySeed := map[int64][]*record{}
	for _, r := range par {
		bySeed[r.Meta.Seed] = append(bySeed[r.Meta.Seed], r)
	}
	var out [][2]*record
	for _, c := range chg {
		if q := bySeed[c.Meta.Seed]; len(q) > 0 {
			out = append(out, [2]*record{q[0], c})
			bySeed[c.Meta.Seed] = q[1:]
		}
	}
	return out
}

func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// better reports whether a is strictly better than b; ties favour neither.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

func verdict(par, chg []float64, wins, pairs int, dir string, bound float64) string {
	p1, pm, p3 := quartiles(par)
	_, cm, _ := quartiles(chg)
	worse := (cm - pm) / pm // positive when the change reads worse
	if dir == "higher" {
		worse = -worse
	}
	spread := (p3 - p1) / pm
	allBetter := true
	for _, c := range chg {
		for _, p := range par {
			if !better(c, p, dir) {
				allBetter = false
			}
		}
	}
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && worse < 0 && -worse*pm > p3-p1:
		return fmt.Sprintf("improved (%.1f%%)", -100*worse)
	case spread > bound && !allBetter:
		return fmt.Sprintf("unresolved (parent spread %.1f%% > bound %.0f%%)", 100*spread, 100*bound)
	case worse > bound:
		return fmt.Sprintf("worse (%.1f%% > bound %.0f%%)", 100*worse, 100*bound)
	default:
		return fmt.Sprintf("no worse (%+.1f%%)", 100*worse)
	}
}
