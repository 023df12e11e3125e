package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Span names: one per layer boundary the in-process replay wraps.
const (
	spRequest   = "request"           // one replayed request, the root
	spParse     = "trace.parse"       // trace.ParseString
	spConvert   = "core.convert"      // core.Convert (tree + token)
	spClassify  = "classify.online"   // classify.Online.Classify
	spCorpus    = "classify.corpus"   // the classify.Corpus seam
	spPrepare   = "engine.prepare"    // Engine.PrepareTraceQuery
	spSimilar   = "engine.similar"    // Engine.SimilarTracePrepared
	spSimilarID = "engine.similar_id" // Similar by id (engine or shard)
	spAdd       = "engine.add"        // Add (engine or shard)
	spAddBatch  = "engine.addbatch"   // AddBatch (engine or shard)
	spRemove    = "engine.remove"     // Remove (engine or shard)
	spWAL       = "store.wal_append"  // the engine.Log seam
	spLabels    = "classify.labels"   // Registry.SetLabels
	spFeed      = "stream.feed"       // Session.Feed
	spFinish    = "stream.finish"     // Session.Finish
	spRecover   = "store.recover"     // store.Open / shard.Open on a killed directory
)

// span is one timed call. Times are nanoseconds since the replay began;
// parent is an index into the same tracer's spans (-1 for a root) and
// req the request the span belongs to.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Worker int    `json:"worker"`
}

// tracer records the spans of one goroutine in memory. A nil tracer
// records nothing, which is how the untraced replay runs the same code.
type tracer struct {
	worker int
	t0     time.Time
	req    int32
	spans  []span
	stack  []int32
}

func newTracer(worker int, t0 time.Time) *tracer { return &tracer{worker: worker, t0: t0} }

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req, Worker: t.worker})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTimes aggregates spans by name: calls, total duration, and self
// time (a span's duration minus the part its children cover; children
// of one span never overlap, as each tracer is one goroutine).
type layerTimes struct {
	calls map[string]int
	self  map[string]time.Duration
	durs  map[string][]float64 // ms, for percentiles
}

func aggregate(ts []*tracer) *layerTimes {
	lt := &layerTimes{calls: map[string]int{}, self: map[string]time.Duration{}, durs: map[string][]float64{}}
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			d := s.End - s.Start
			lt.calls[s.Name]++
			lt.self[s.Name] += time.Duration(d - child[i])
			lt.durs[s.Name] = append(lt.durs[s.Name], float64(d)/1e6)
		}
	}
	return lt
}

// perCall is the mean self time of a span name in ms (0 when absent).
func (lt *layerTimes) perCall(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return float64(lt.self[name]) / 1e6 / float64(lt.calls[name])
}

// writeSpans writes every span as one JSON line, worker by worker; a
// span's parent is the id of a span of the same worker.
func writeSpans(path string, ts []*tracer) error {
	var all []span
	for _, t := range ts {
		all = append(all, t.spans...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
