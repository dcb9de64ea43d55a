package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
)

// compare prints, per workload and metric, the median of each side's runs
// and the change from A to B. Each side is a file of --out result lines,
// typically ten seeds of one commit. It refuses to compare results whose
// hardware fields differ.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: auditbench compare A.jsonl B.jsonl")
		return 2
	}
	var sides [2][]result
	for i, path := range args {
		rs, err := readResults(path)
		if err != nil {
			fmt.Fprintln(stderr, "auditbench compare:", err)
			return 1
		}
		if len(rs) == 0 {
			fmt.Fprintf(stderr, "auditbench compare: %s holds no results\n", path)
			return 1
		}
		sides[i] = rs
	}
	hw := sides[0][0].Env.hardwareFields()
	for i, rs := range sides {
		for _, r := range rs {
			if got := r.Env.hardwareFields(); !reflect.DeepEqual(got, hw) {
				fmt.Fprintf(stderr, "auditbench compare: refusing: %s was measured on %v, %s on %v\n", args[0], hw, args[i], got)
				return 1
			}
		}
	}
	for _, wl := range workloads {
		var vals [2]map[string][]float64
		units := map[string]string{}
		for i, rs := range sides {
			vals[i] = map[string][]float64{}
			for _, r := range rs {
				if r.Workload != wl.name {
					continue
				}
				for n, m := range r.Metrics {
					vals[i][n] = append(vals[i][n], m.Value)
					units[n] = m.Unit
				}
			}
		}
		if len(vals[0]) == 0 || len(vals[1]) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%s\n  %-34s %14s %14s %9s  %s\n", wl.name, "metric", "A median", "B median", "change", "runs")
		var names []string
		for n := range vals[0] {
			if len(vals[1][n]) > 0 {
				names = append(names, n)
			}
		}
		slices.Sort(names)
		for _, n := range names {
			a, b := median(vals[0][n]), median(vals[1][n])
			change := "n/a"
			if a != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
			}
			fmt.Fprintf(stdout, "  %-34s %14.4f %14.4f %9s  %d/%d %s\n", n, a, b, change, len(vals[0][n]), len(vals[1][n]), units[n])
		}
	}
	return 0
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
