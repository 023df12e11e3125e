package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"iokast/internal/classify"
	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/load"
	"iokast/internal/obs"
	"iokast/internal/shard"
	"iokast/internal/sketch"
	"iokast/internal/store"
	"iokast/internal/stream"
	"iokast/internal/token"
	"iokast/internal/trace"
)

// stack is the iokserve stack built in process from the same public
// constructors and default options the binary uses.
type stack struct {
	eng *engine.Engine // single-engine workloads
	st  *store.Store
	sh  *shard.Sharded // sharded workloads
	reg *classify.Registry
	obs *obs.Registry

	// byG maps a goroutine to its tracer, so the one engine.Log wrapper
	// records each WAL append in the span tree of the request it serves.
	mu  sync.Mutex
	byG map[uint64]*tracer
}

// bind makes t the tracer of WAL appends the calling goroutine causes.
func (s *stack) bind(t *tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byG[goid()] = t
}

func (s *stack) tracer() *tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byG[goid()]
}

// goid is the calling goroutine's id, read from its stack header
// ("goroutine 42 [running]:"). The engine calls its Log synchronously on
// the goroutine that mutates, so the id names the request's tracer.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

func engineOptions() engine.Options {
	return engine.Options{
		Kernel:    &core.Kast{CutWeight: 2},
		SketchDim: sketch.DefaultDim, ANNBands: sketch.DefaultBands, ANNRows: sketch.DefaultRows,
	}
}

// openStack opens (or recovers) the workload's durable corpus in dir.
func openStack(w *workload, dir string) (*stack, error) {
	s := &stack{obs: obs.NewRegistry(), byG: map[uint64]*tracer{}}
	eopt := engineOptions()
	sopt := store.Options{SnapshotEvery: w.snapshotEvery}
	var err error
	if w.shards > 1 {
		s.sh, err = shard.Open(dir, shard.Options{Shards: w.shards, Engine: eopt, Store: sopt, Obs: s.obs})
	} else {
		eopt.Metrics = engine.NewMetrics(s.obs, nil)
		sopt.Metrics = store.NewMetrics(s.obs, nil)
		s.eng, s.st, err = store.Open(dir, func() *engine.Engine { return engine.New(eopt) }, sopt)
		if err == nil {
			s.eng.SetLog(&tracedLog{s})
		}
	}
	if err != nil {
		return nil, err
	}
	if s.reg, err = classify.OpenRegistry(filepath.Join(dir, classify.DefaultLabelsFile)); err != nil {
		return nil, err
	}
	return s, nil
}

// tracedLog is the engine.Log seam: the store's WAL append in a span.
type tracedLog struct{ s *stack }

func (l *tracedLog) LogAdd(id int, x token.String) error {
	t := l.s.tracer()
	defer t.end(t.begin(spWAL))
	return l.s.st.LogAdd(id, x)
}

func (l *tracedLog) LogAddBatch(first int, xs []token.String) error {
	t := l.s.tracer()
	defer t.end(t.begin(spWAL))
	return l.s.st.LogAddBatch(first, xs)
}

func (l *tracedLog) LogRemove(id int) error {
	t := l.s.tracer()
	defer t.end(t.begin(spWAL))
	return l.s.st.LogRemove(id)
}

// tracedCorpus is the classify.Corpus seam. On a single engine it makes
// the two calls Engine.SimilarTrace makes, each in its own span.
type tracedCorpus struct {
	s *stack
	t *tracer
}

func (c *tracedCorpus) SimilarTrace(x token.String, k, rerank int) ([]engine.Neighbor, error) {
	defer c.t.end(c.t.begin(spCorpus))
	if c.s.sh != nil {
		return c.s.sh.SimilarTrace(x, k, rerank)
	}
	sp := c.t.begin(spPrepare)
	tq, err := c.s.eng.PrepareTraceQuery(x)
	c.t.end(sp)
	if err != nil {
		return nil, err
	}
	defer c.t.end(c.t.begin(spSimilar))
	return c.s.eng.SimilarTracePrepared(tq, k, rerank)
}

// worker is one replay goroutine's view: its tracer and its own
// classifier and stream registry over the shared corpus and labels.
type worker struct {
	s       *stack
	t       *tracer
	online  *classify.Online
	streams *stream.Registry
	added   []addedTrace
	pending []addedTrace
}

func (s *stack) newWorker(t *tracer) *worker {
	on := classify.NewOnline(&tracedCorpus{s, t}, s.reg)
	return &worker{s: s, t: t, online: on, streams: stream.NewRegistry(stream.Config{Classifier: on, Metrics: stream.NewMetrics(s.obs)})}
}

func (wk *worker) parse(text string) (token.String, error) {
	sp := wk.t.begin(spParse)
	tr, err := trace.ParseString(text)
	wk.t.end(sp)
	if err != nil {
		return nil, err
	}
	defer wk.t.end(wk.t.begin(spConvert))
	return core.Convert(tr, core.Options{}), nil
}

// mutate runs one corpus mutation in a span.
func (wk *worker) mutate(name string, f func()) {
	defer wk.t.end(wk.t.begin(name))
	f()
}

func (wk *worker) add(x token.String) int {
	var id int
	wk.mutate(spAdd, func() {
		if wk.s.sh != nil {
			id = wk.s.sh.Add(x)
		} else {
			id = wk.s.eng.Add(x)
		}
	})
	return id
}

func (wk *worker) remove(id int) (err error) {
	wk.mutate(spRemove, func() {
		if wk.s.sh != nil {
			err = wk.s.sh.Remove(id)
		} else {
			err = wk.s.eng.Remove(id)
		}
	})
	if err == nil {
		if _, ok := wk.s.reg.LabelOf(id); ok {
			err = wk.s.reg.SetLabel(id, "")
		}
	}
	return err
}

func (wk *worker) similarID(id int) ([]engine.Neighbor, error) {
	defer wk.t.end(wk.t.begin(spSimilarID))
	if wk.s.sh != nil {
		return wk.s.sh.Similar(id, 10)
	}
	return wk.s.eng.Similar(id, 10)
}

func (wk *worker) setLabels(assign map[int]string) error {
	defer wk.t.end(wk.t.begin(spLabels))
	return wk.s.reg.SetLabels(assign)
}

func (wk *worker) classify(x token.String, rerank int) (*classify.Result, error) {
	defer wk.t.end(wk.t.begin(spClassify))
	return wk.online.Classify(x, 10, rerank)
}

// do replays one timed op the way the server's handler performs it.
func (wk *worker) do(o op) error {
	defer wk.t.end(wk.t.begin(spRequest))
	switch o.kind {
	case kClassify:
		x, err := wk.parse(o.s.text)
		if err != nil {
			return err
		}
		_, err = wk.classify(x, -1)
		return err
	case kSimilarID:
		_, err := wk.similarID(o.id)
		return err
	case kAdd:
		x, err := wk.parse(o.s.text)
		if err != nil {
			return err
		}
		a := addedTrace{wk.add(x), o.s}
		wk.added = append(wk.added, a)
		wk.pending = append(wk.pending, a)
		return nil
	case kLabels:
		assign := map[int]string{}
		for _, a := range wk.pending {
			assign[a.id] = string(a.s.cat)
		}
		wk.pending = wk.pending[:0]
		return wk.setLabels(assign)
	case kDelete:
		return wk.remove(wk.added[-o.id-1].id)
	}
	return fmt.Errorf("op kind %v", o.kind)
}

// replay is one in-process run of a workload: prefill, the timed op
// lists on one goroutine per connection, the check battery's calls and a
// recovery of the killed directory. With traced = false every tracer is
// nil and the same calls run unrecorded.
type replay struct {
	tracers []*tracer
	wall    time.Duration // timed phase
	opLat   []float64     // ms per timed op
	before  map[string]float64
	after   map[string]float64 // in-process /metrics around the battery's streams
	streams int
}

func runReplay(w *workload, dir string, traced bool, ck *checker) (*replay, error) {
	data := filepath.Join(dir, "data")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s, err := openStack(w, data)
	if err != nil {
		return nil, err
	}
	defer s.close()
	t0 := time.Now()
	rp := &replay{}
	mk := func(i int) *tracer {
		if !traced {
			return nil
		}
		t := newTracer(i, t0)
		rp.tracers = append(rp.tracers, t)
		return t
	}
	w0 := s.newWorker(mk(0))
	defer w0.streams.Close()
	s.bind(w0.t)

	// Set-up: the batches and the labels, as the server's prefill.
	assign := map[int]string{}
	for lo := 0; lo < len(w.refs); lo += prefillBatch {
		batch := w.refs[lo:min(lo+prefillBatch, len(w.refs))]
		xs := make([]token.String, len(batch))
		for i, r := range batch {
			if xs[i], err = w0.parse(r.text); err != nil {
				return nil, err
			}
		}
		var ids []int
		w0.mutate(spAddBatch, func() {
			if s.sh != nil {
				ids, err = s.sh.AddBatch(xs)
			} else {
				ids, err = s.eng.AddBatch(xs)
			}
		})
		if err != nil {
			return nil, err
		}
		for i, id := range ids {
			assign[id] = string(batch[i].cat)
		}
	}
	if err := w0.setLabels(assign); err != nil {
		return nil, err
	}

	// Timed: one goroutine per connection, closed loop.
	workers := []*worker{w0}
	for i := 1; i < len(w.conns); i++ {
		wk := s.newWorker(mk(i))
		defer wk.streams.Close()
		workers = append(workers, wk)
	}
	lat := make([][]float64, len(w.conns))
	errs := make([]error, len(w.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, list := range w.conns {
		wg.Add(1)
		go func(ci int, list []op) {
			defer wg.Done()
			wk := workers[ci]
			s.bind(wk.t)
			for i, o := range list {
				if wk.t != nil {
					wk.t.req = int32(i)
				}
				t := time.Now()
				if err := wk.do(o); err != nil && errs[ci] == nil {
					errs[ci] = err
				}
				lat[ci] = append(lat[ci], float64(time.Since(t))/1e6)
			}
		}(ci, list)
	}
	wg.Wait()
	rp.wall = time.Since(start)
	for ci := range lat {
		if errs[ci] != nil {
			return nil, fmt.Errorf("in-process replay: %w", errs[ci])
		}
		rp.opLat = append(rp.opLat, lat[ci]...)
	}

	pending := map[int]string{}
	for _, wk := range workers {
		for _, a := range wk.pending {
			pending[a.id] = string(a.s.cat)
		}
	}
	if len(pending) > 0 {
		if err := w0.setLabels(pending); err != nil {
			return nil, err
		}
	}
	if err := rp.battery(w, s, w0, ck); err != nil {
		return nil, err
	}

	// Recovery: the directory as a kill leaves it (no Close), copied so
	// the live stores keep their files.
	killed := filepath.Join(dir, "killed")
	if err := copyDir(data, killed); err != nil {
		return nil, err
	}
	sp := w0.t.begin(spRecover)
	r, err := openStack(w, killed)
	w0.t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("in-process recovery: %w", err)
	}
	r.close()
	return rp, nil
}

// battery replays the check battery's calls that reach the layers the
// timed phase may not: a probe add and delete, by-id queries, exact
// classifications, and two streamed sessions whose final verdicts must
// equal batch classification at covering rerank.
func (rp *replay) battery(w *workload, s *stack, wk *worker, ck *checker) error {
	x, err := wk.parse(w.probe.text)
	if err != nil {
		return err
	}
	if err := wk.remove(wk.add(x)); err != nil {
		return err
	}
	for _, id := range w.byID {
		if _, err := wk.similarID(id); err != nil {
			return err
		}
	}
	cover := s.len() + 1
	if rp.before, err = scrape(s.obs); err != nil {
		return err
	}
	for _, q := range w.queries {
		if q.cat == "A" || rp.streams == 2 {
			continue
		}
		rp.streams++
		qx, err := wk.parse(q.text)
		if err != nil {
			return err
		}
		batch, err := wk.classify(qx, cover)
		if err != nil {
			return err
		}
		sess, err := wk.streams.Get(fmt.Sprintf("check-%d", rp.streams))
		if err != nil {
			return err
		}
		for _, o := range q.tr.Ops {
			sp := wk.t.begin(spFeed)
			_, err := sess.Feed(stream.Event{Op: o.Name, Handle: o.Handle, Bytes: o.Bytes, Addr: o.Addr, Path: o.Path}, 10, cover)
			wk.t.end(sp)
			if err != nil {
				return err
			}
		}
		sp := wk.t.begin(spFinish)
		fin, err := sess.Finish(10, cover)
		wk.t.end(sp)
		wk.streams.Remove(sess.Name())
		if err != nil {
			return err
		}
		if fin.Label != batch.Label || fin.Confidence != batch.Confidence {
			ck.failf("stream final %q/%v != batch classification %q/%v (%s query)", fin.Label, fin.Confidence, batch.Label, batch.Confidence, q.cat)
		}
	}
	rp.after, err = scrape(s.obs)
	return err
}

func (s *stack) len() int {
	if s.sh != nil {
		return s.sh.Len()
	}
	return s.eng.Len()
}

func (s *stack) close() {
	if s.sh != nil {
		_ = s.sh.Close()
	} else {
		_ = s.st.Close()
	}
}

// scrape reads an in-process registry the way a /metrics scrape does.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		return nil, err
	}
	return load.ParseMetrics(&b)
}

// inprocLayers runs the untraced and the traced replay and derives the
// per-layer times, the tracing overhead and the allocation counts.
func inprocLayers(w *workload, dir string, h *httpRun, ck *checker, spansPath string) (map[string]metric, error) {
	plain, err := runReplay(w, filepath.Join(dir, "plain"), false, ck)
	if err != nil {
		return nil, err
	}
	tr, err := runReplay(w, filepath.Join(dir, "traced"), true, ck)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, tr.tracers); err != nil {
		return nil, err
	}
	lt := aggregate(tr.tracers)
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	put("trace.parse_ms_per_op", "ms", lt.perCall(spParse))
	put("core.convert_ms_per_op", "ms", lt.perCall(spConvert))
	put("engine.prepare_ms_per_query", "ms", lt.perCall(spPrepare))
	put("engine.similar_ms_per_query", "ms", lt.perCall(spSimilar))
	put("engine.similar_id_ms_per_query", "ms", lt.perCall(spSimilarID))
	put("engine.add_ms_per_trace", "ms", lt.perCall(spAdd))
	put("engine.addbatch_ms_per_trace", "ms", float64(lt.self[spAddBatch])/1e6/float64(len(w.refs)))
	put("store.wal_append_ms_per_op", "ms", lt.perCall(spWAL))
	put("store.recover_s", "s", lt.perCall(spRecover)/1000)
	put("classify.corpus_ms_p50", "ms", median(lt.durs[spCorpus]))
	put("classify.vote_ms_per_query", "ms", lt.perCall(spClassify))
	put("classify.labels_ms_per_call", "ms", lt.perCall(spLabels))
	put("stream.feed_us_per_event", "us", 1000*lt.perCall(spFeed))
	put("stream.finish_ms_per_session", "ms", lt.perCall(spFinish))
	delta := func(name string) float64 { return sumFamily(tr.after, name) - sumFamily(tr.before, name) }
	ticks := delta("iok_stream_window_ticks_total")
	put("stream.window_ticks_per_session", "count", ticks/float64(tr.streams))
	put("stream.cache_hit_ratio", "ratio", delta("iok_stream_cache_hits_total")/ticks)
	put("trace.overhead_pct", "%", 100*(tr.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())

	// The HTTP run's mean latency per timed op, less the in-process
	// untraced replay's: what HTTP, JSON and the handlers add per request.
	var httpLat []float64
	for _, rs := range h.replies {
		for _, r := range rs {
			if r.err == nil {
				httpLat = append(httpLat, float64(r.end-r.start)/1e6)
			}
		}
	}
	put("serve.self_ms_per_op", "ms", mean(httpLat)-mean(plain.opLat))

	for k, v := range microLayers(w) {
		out[k] = v
	}
	return out, nil
}

// microLayers measures what spans cannot: allocations per parse and per
// conversion over the workload's own request bodies, and the kernel's
// time and allocations per evaluation over pairs of its traces, each on
// one goroutine with nothing else running.
func microLayers(w *workload) map[string]metric {
	var bodies []*sample
	for _, list := range w.conns {
		for _, o := range list {
			if o.s != nil && len(bodies) < 240 {
				bodies = append(bodies, o.s)
			}
		}
	}
	if len(bodies) == 0 {
		bodies = w.queries
	}
	trs := make([]*trace.Trace, len(bodies))
	parseAllocs := allocsPer(len(bodies), func() {
		for i, b := range bodies {
			trs[i], _ = trace.ParseString(b.text)
		}
	})
	xs := make([]token.String, len(trs))
	convAllocs := allocsPer(len(trs), func() {
		for i, t := range trs {
			xs[i] = core.Convert(t, core.Options{})
		}
	})
	k := &core.Kast{CutWeight: 2}
	var as, bs []token.String
	for i, x := range xs {
		for j := 0; j < 4; j++ {
			as = append(as, x)
			bs = append(bs, w.refs[(7*i+j)%len(w.refs)].convert())
		}
	}
	var took time.Duration
	kAllocs := allocsPer(len(as), func() {
		t0 := time.Now()
		for i := range as {
			k.Compare(as[i], bs[i])
		}
		took = time.Since(t0)
	})
	return map[string]metric{
		"trace.parse_allocs_per_op":   {parseAllocs, "count"},
		"core.convert_allocs_per_op":  {convAllocs, "count"},
		"core.kernel_us_per_eval":     {took.Seconds() * 1e6 / float64(len(as)), "us"},
		"core.kernel_allocs_per_eval": {kAllocs, "count"},
	}
}

// allocsPer runs f once and returns heap allocations per unit of n.
func allocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}
