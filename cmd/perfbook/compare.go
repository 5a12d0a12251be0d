package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict classifies new against old for one metric of one workload. The
// medians decide better/same/worse by the metric's bound; when either
// side's own spread is wider than the bound the pairing is unresolved,
// unless every value of one side beats every value of the other.
func verdict(old, new metricSummary, higherBetter bool, bound float64) string {
	worseBy := new.Value/old.Value - 1 // share of the base (old) by which new is worse
	oldBest, oldWorst, newBest, newWorst := old.Min, old.Max, new.Min, new.Max
	if higherBetter {
		worseBy = 1 - new.Value/old.Value
		oldBest, oldWorst, newBest, newWorst = -old.Max, -old.Min, -new.Max, -new.Min
	}
	spread := func(s metricSummary) float64 { return (s.Max - s.Min) / s.Value }
	if spread(old) > bound || spread(new) > bound {
		switch {
		case newWorst < oldBest:
			return "better"
		case newBest > oldWorst:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worseBy > bound:
		return "worse"
	case worseBy < -bound:
		return "better"
	}
	return "same"
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and returns an error when any row is worse or more
// operations failed.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	var old, new runResult
	for path, v := range map[string]*runResult{oldPath: &old, newPath: &new} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	if old.Fingerprint == nil || new.Fingerprint == nil {
		return fmt.Errorf("both files need a fingerprint (write them with -out)")
	}
	if a, b := old.Fingerprint, new.Fingerprint; a.CPUModel != b.CPUModel || a.GOMAXPROCS != b.GOMAXPROCS {
		return fmt.Errorf("not comparable: %q GOMAXPROCS=%d against %q GOMAXPROCS=%d", a.CPUModel, a.GOMAXPROCS, b.CPUModel, b.GOMAXPROCS)
	}
	names := make([]string, 0, len(old.Workloads))
	for name := range old.Workloads {
		if new.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-17s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "old", "[min, max]", "new", "[min, max]", "new/old", "verdict")
	var bad []string
	for _, name := range names {
		o, n := old.Workloads[name], new.Workloads[name]
		for _, m := range endToEndMetrics {
			a, b := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
			v := verdict(a, b, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-16s %-17s %12.6g [%11.6g,%11.6g] %12.6g [%11.6g,%11.6g] %8.4f  %s\n",
				name, m.Name, a.Value, a.Min, a.Max, b.Value, b.Min, b.Max, b.Value/a.Value, v)
			if v == "worse" {
				bad = append(bad, name+"/"+m.Name+" worse")
			}
		}
		if of, nf := float64(o.Failed)/float64(o.Attempted), float64(n.Failed)/float64(n.Attempted); nf > of {
			bad = append(bad, fmt.Sprintf("%s failed share %.6g → %.6g", name, of, nf))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("regressions: %v", bad)
	}
	return nil
}
