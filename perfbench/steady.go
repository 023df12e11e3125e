package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady re-runs every workload -runs times with a new seed each round,
// alternating the workload order between rounds, and prints for each
// end-to-end metric its median, quartiles and spread (interquartile
// distance over the median) against its bound in BENCHMARK.json. It
// fails when a spread exceeds its bound, or when the share of failed
// operations differs between runs of one workload.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seed0 := fs.Uint64("seed", 1, "seed of the first round; round i uses seed+i")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	bin := fs.String("server-bin", "", "path to the iokserve binary")
	work := fs.String("workdir", ".bench_build/runs", "run directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string]map[string][]float64{} // workload -> metric -> values
	shares := map[string][]float64{}
	for r := 0; r < *runs; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			sort.Sort(sort.Reverse(sort.StringSlice(order)))
		}
		for _, w := range order {
			seed := *seed0 + uint64(r)
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(spec.RunSeconds), "-trace", "0", "-server-bin", *bin, "-workdir", *work)
			var out, errOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errOut
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w, seed, err, errOut.Bytes())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect result", w, seed)
			}
			if vals[w] == nil {
				vals[w] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				vals[w][k] = append(vals[w][k], m.Value)
			}
			shares[w] = append(shares[w], float64(res.Failed)/float64(res.Attempted))
			fmt.Fprintf(os.Stderr, "round %d %s seed %d: %s\n", r, w, seed, lines[len(lines)-1])
		}
	}
	bad := 0
	fmt.Printf("%-9s %-14s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			xs := vals[w][m.Name]
			if len(xs) == 0 {
				return fmt.Errorf("%s: no %s values", w, m.Name)
			}
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			verdict := "steady (< bound/3)"
			switch {
			case spread > m.Bound:
				verdict = "OVER BOUND"
				bad++
			case spread > m.Bound/3:
				verdict = "within bound"
			}
			fmt.Printf("%-9s %-14s %12.5g %12.5g %12.5g %8.4f %6.3f  %s\n", w, m.Name, q1, q2, q3, spread, m.Bound, verdict)
		}
		for _, s := range shares[w] {
			if s != shares[w][0] {
				fmt.Printf("%-9s failed share differs between runs: %v\n", w, shares[w])
				bad++
				break
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) over bound or unsteady failure share", bad)
	}
	return nil
}
