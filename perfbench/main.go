// Command perfbench is iokast's end-to-end and per-layer benchmark. It
// starts the shipped iokserve binary as its own process, prefills it,
// drives a fixed, seeded request list over loopback HTTP from closed-loop
// connections, checks every answer against independent oracles, kills
// the server and times its recovery, and prints one JSON result line.
//
//	perfbench -workload classify|ingest|mixed -seed N -seconds S -trace 0|1 -server-bin PATH
//
// With -trace 1 it reports per-layer metrics instead: /metrics deltas
// from an HTTP run, and self times from an in-process replay of the same
// requests through the layers' public functions, each call wrapped in a
// span. "perfbench steady" re-runs workloads to check the bounds in
// BENCHMARK.json (see steady.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: classify, ingest or mixed")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal run length; scales the fixed request list")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	bin := flag.String("server-bin", "", "path to the iokserve binary")
	work := flag.String("workdir", ".bench_build/runs", "directory for data directories and logs, removed after the run")
	spans := flag.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server-bin, -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := buildWorkload(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	spansPath := ""
	if *traced == 1 {
		if err := os.MkdirAll(*spans, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		spansPath = filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	res, err := run(w, *bin, dir, spansPath)
	if rerr := os.RemoveAll(dir); rerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: clean up:", rerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload. An error means the run could not complete;
// a failed correctness check yields a result with Correct = false.
func run(w *workload, bin, dir, spansPath string) (*result, error) {
	traced := spansPath != ""
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	setups, recovers := 7, 4
	if traced {
		setups, recovers = 1, 1
	}
	h := &httpRun{w: w, bin: bin, dir: dir}
	e, ck, err := h.measure(setups, recovers)
	if h.srv != nil {
		h.srv.kill()
	}
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: e.metrics, Attempted: e.ann.rounds, Failed: e.ann.failed}
	for _, ks := range h.byKind() {
		res.Attempted += ks.attempted
		res.Failed += ks.failed
	}
	if traced {
		res.Metrics = h.layerCounts(e)
		lm, err := inprocLayers(w, filepath.Join(dir, "inproc"), h, ck, spansPath)
		if err != nil {
			return nil, err
		}
		for k, v := range lm {
			res.Metrics[k] = v
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", spansPath)
	}
	res.Correct = ck.err() == nil
	if err := ck.err(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return res, nil
}

// e2e is what one HTTP run measured.
type e2e struct {
	metrics                  map[string]metric
	replayed                 float64    // WAL records the first restart replayed
	ann                      *annResult // the default-rerank probe
	accuracy                 float64    // share of timed /classify verdicts naming the query's class
	setup, recover           []time.Duration
	setupSteal, recoverSteal []float64 // share of CPU time stolen during each
	probeTook, checksTook    time.Duration
}

// measure runs the whole HTTP sequence: the set-up, the default-rerank
// probe, warm-up, the timed phase, the checks, SIGKILL and timed
// restarts. The other setups-1 set-ups are timed on a second server in
// the gaps between the timed phase's slices and between restarts, so
// that every wall-clock metric samples the host over most of the run
// rather than one stretch of it: on a shared host the CPU share a run
// gets drifts over tens of seconds.
func (h *httpRun) measure(setups, recovers int) (*e2e, *checker, error) {
	e := &e2e{metrics: map[string]metric{}}
	ck := &checker{}
	addSetup := func(d time.Duration, steal float64) {
		e.setup = append(e.setup, d)
		e.setupSteal = append(e.setupSteal, steal)
	}
	side := func() error {
		if len(e.setup) >= setups {
			return nil
		}
		d, steal, err := h.sideSetup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		addSetup(d, steal)
		return nil
	}
	d, steal, err := h.setup()
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	addSetup(d, steal)
	t0 := time.Now()
	if e.ann, err = probeANN(h, ck); err != nil {
		return nil, nil, fmt.Errorf("default-rerank probe: %w", err)
	}
	e.probeTook = time.Since(t0)
	if err := h.warmup(); err != nil {
		return nil, nil, err
	}
	cpu0, err := h.srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	if err := h.timed(side); err != nil {
		return nil, nil, err
	}
	cpu1, err := h.srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	kinds := h.byKind()
	completed := 0
	for _, ks := range kinds {
		completed += ks.attempted - ks.failed
	}
	if completed == 0 {
		return nil, nil, fmt.Errorf("no timed request succeeded: %v", h.firstErr())
	}

	t0 = time.Now()
	if err := h.labelPending(); err != nil {
		return nil, nil, err
	}
	m, err := newModel(h)
	if err != nil {
		return nil, nil, err
	}
	e.accuracy = checkTimed(h, m, ck)
	if err := checkBattery(h, m, ck); err != nil {
		return nil, nil, fmt.Errorf("checks: %w", err)
	}
	dur, err := snapshotAnswers(h, m)
	if err != nil {
		return nil, nil, err
	}
	e.checksTook = time.Since(t0)
	h.srv.kill()
	h.c.close()
	h.srv = nil
	disk, err := dirBytes(h.data)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < recovers; i++ {
		if i > 0 {
			if err := side(); err != nil {
				return nil, nil, err
			}
		}
		took, steal, srv, err := h.recoverOnce(h.data, i, dur, ck)
		if err != nil {
			if srv != nil {
				srv.kill()
			}
			return nil, nil, fmt.Errorf("recovery: %w", err)
		}
		if i == 0 {
			c := newClient(srv.addr)
			after, err := c.metrics()
			c.close()
			if err != nil {
				srv.kill()
				return nil, nil, err
			}
			e.replayed = sumFamily(after, "iok_store_replay_records_total")
		}
		srv.kill()
		e.recover = append(e.recover, took)
		e.recoverSteal = append(e.recoverSteal, steal)
	}
	for len(e.setup) < setups {
		if err := side(); err != nil {
			return nil, nil, err
		}
	}

	h.report(os.Stderr, e)
	lat := kinds[h.w.primary].lat
	if len(lat) < 100 {
		return nil, nil, fmt.Errorf("%d %s samples, p90 needs 100", len(lat), h.w.primary)
	}
	if len(h.rss) < 40 {
		return nil, nil, fmt.Errorf("%d resident-set samples, want at least 40", len(h.rss))
	}
	sorted := sortedCopy(lat)
	put := func(name, unit string, v float64) { e.metrics[name] = metric{v, unit} }
	put("setup_s", "s", medianDur(e.setup).Seconds())
	put("ops_per_s", "1/s", float64(completed)/h.wall.Seconds())
	put("cpu_ms_per_op", "ms", (cpu1-cpu0)*1000/float64(completed))
	put("p50_ms", "ms", percentile(sorted, 0.5))
	put("p90_ms", "ms", percentile(sorted, 0.9))
	put("recover_s", "s", medianDur(e.recover).Seconds())
	put("rss_mb", "MB", median(h.rss))
	put("disk_mb", "MB", float64(disk)/(1<<20))
	return e, ck, nil
}

// pcts formats shares as percentages.
func pcts(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.1f%%", 100*x)
	}
	return "[" + strings.Join(out, " ") + "]"
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// report prints the human-readable summary to w: every request kind with
// its attempts, failures and latency, then every metric.
func (h *httpRun) report(w io.Writer, e *e2e) {
	fmt.Fprintf(w, "workload %s: %d connections, %.2fs timed, %.1f%% of the host's CPU time stolen meanwhile\n",
		h.w.name, len(h.w.conns), h.wall.Seconds(), 100*h.steal)
	fmt.Fprintf(w, "  %-10s attempted %5d failed %d  recall@10 %.3f, %d/%d verdicts of the right class\n",
		"ann_probe", e.ann.rounds, e.ann.failed, e.ann.recall, e.ann.rightClass, len(h.w.annProbe))
	for k, ks := range h.byKind() {
		if ks.attempted == 0 {
			continue
		}
		line := fmt.Sprintf("  %-10s attempted %5d failed %d", opKind(k), ks.attempted, ks.failed)
		if len(ks.lat) > 0 {
			s := sortedCopy(ks.lat)
			line += fmt.Sprintf("  p50 %.2fms", percentile(s, 0.5))
			if q, ok := tailQuantile(len(s)); ok {
				line += fmt.Sprintf("  p%g %.2fms", q*100, percentile(s, q))
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  set-ups %v (steal %s), recoveries %v (steal %s), replayed %.0f records\n",
		e.setup, pcts(e.setupSteal), e.recover, pcts(e.recoverSteal), e.replayed)
	fmt.Fprintf(w, "  untimed: default-rerank probe %v, checks %v\n", e.probeTook.Round(time.Millisecond), e.checksTook.Round(time.Millisecond))
}
