package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// readSide reads one side of a comparison: files as `run` writes them
// (one result per workload), several per side when comma-separated;
// a side's value for a workload × metric is then the median over its
// files, and the spread between them decides whether a difference can
// be resolved at all.
func readSide(arg string) (map[string]map[string][]float64, error) {
	side := map[string]map[string][]float64{}
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var results []result
		if err := json.Unmarshal(b, &results); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range results {
			if !r.Correct {
				return nil, fmt.Errorf("%s: workload %s did not pass its checks; its numbers compare nothing", path, r.Workload)
			}
			if side[r.Workload] == nil {
				side[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				side[r.Workload][name] = append(side[r.Workload][name], m.Value)
			}
		}
	}
	return side, nil
}

// verdict compares one metric's base and new values against its bound.
// ratio is new over base; a metric is worse when it moved in its bad
// direction by more than the bound, and unresolved when either side's
// own spread (max−min over its files, relative to its median) exceeds
// the bound — then the runs cannot tell a regression from noise.
func verdict(def metricDef, base, next []float64) (ratio float64, v string) {
	b, n := median(base), median(next)
	if b == 0 {
		return 0, "unresolved"
	}
	ratio = n / b
	for _, side := range [][]float64{base, next} {
		lo, hi := side[0], side[0]
		for _, x := range side {
			lo, hi = min(lo, x), max(hi, x)
		}
		if m := median(side); m != 0 && (hi-lo)/m > def.Bound {
			return ratio, "unresolved"
		}
	}
	worse := ratio > 1+def.Bound
	if def.Better == "higher" {
		worse = ratio < 1-def.Bound
	}
	if worse {
		return ratio, "worse"
	}
	return ratio, "ok"
}

// cmdCheck is `check A.json B.json`: every pairing of workload and
// gated end-to-end metric in its own row — both values, the ratio with
// its base, and ok / worse / unresolved. It fails on any worse row.
func cmdCheck(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark check BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	m, err := readManifest(root)
	if err != nil {
		return err
	}
	base, err := readSide(args[0])
	if err != nil {
		return err
	}
	next, err := readSide(args[1])
	if err != nil {
		return err
	}
	workloads := make([]string, 0, len(base))
	for w := range base {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	fmt.Printf("%-13s %-16s %14s %14s %8s  %-6s %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	counts := map[string]int{}
	for _, w := range workloads {
		for _, def := range m.EndToEnd {
			bv, nv := base[w][def.Name], next[w][def.Name]
			if len(bv) == 0 || len(nv) == 0 {
				fmt.Printf("%-13s %-16s %14s %14s %8s  %-6g unresolved (missing on one side)\n", w, def.Name, "-", "-", "-", def.Bound)
				counts["unresolved"]++
				continue
			}
			ratio, v := verdict(def, bv, nv)
			counts[v]++
			fmt.Printf("%-13s %-16s %14.6g %14.6g %8.3f  %-6g %s (%s is better, base %.6g %s)\n",
				w, def.Name, median(bv), median(nv), ratio, def.Bound, v, def.Better, median(bv), def.Unit)
		}
	}
	fmt.Printf("%d ok, %d worse, %d unresolved\n", counts["ok"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return fmt.Errorf("%d pairing(s) of workload and metric got worse by more than their bound", counts["worse"])
	}
	return nil
}
