package main

import (
	"fmt"

	"iokast/internal/core"
	"iokast/internal/iogen"
	"iokast/internal/token"
	"iokast/internal/trace"
	"iokast/internal/xrand"
)

// sample is one generated trace: the canonical text the server receives,
// the generator category it came from (the ground-truth class), and the
// parsed trace the benchmark keeps for its own checks.
type sample struct {
	text string
	cat  iogen.Category
	tr   *trace.Trace
	x    token.String // converted on demand by the oracle
}

// sameClass is the paper's §4 class rule: C (normal I/O) and D (random
// access I/O) share one access pattern and count as one class.
func sameClass(a, b string) bool {
	norm := func(c string) string {
		if c == string(iogen.CatRandomAccess) {
			return string(iogen.CatNormal)
		}
		return c
	}
	return norm(a) == norm(b)
}

// gen draws unique samples from one seeded stream. Every sample is a
// generator trace with a few mutations, the paper's way of making
// variants of one access pattern; a text already drawn (reference or
// query) is drawn again, so queries are never copies of references.
type gen struct {
	r    *xrand.Rand
	seen map[string]bool
}

func newGen(seed uint64) *gen { return &gen{r: xrand.New(seed), seen: map[string]bool{}} }

func (g *gen) draw(cat iogen.Category) *sample {
	for {
		base, err := iogen.GenerateExtended(cat, g.r)
		if err != nil {
			panic(fmt.Sprintf("generator category %q: %v", cat, err)) // fixed category list
		}
		t := iogen.Mutate(base, g.r, 2)
		t.Name = ""
		text := trace.FormatString(t)
		if g.seen[text] {
			continue
		}
		g.seen[text] = true
		return &sample{text: text, cat: cat, tr: t}
	}
}

// drawN draws n samples cycling through cats, so every prefix of the
// list has the same category mix.
func (g *gen) drawN(n int, cats []iogen.Category) []*sample {
	out := make([]*sample, n)
	for i := range out {
		out[i] = g.draw(cats[i%len(cats)])
	}
	return out
}

// allCats are the six generator categories: the paper's A-D plus the two
// extension families E (collective I/O) and F (log append).
var allCats = iogen.ExtendedCategories

func (s *sample) convert() token.String {
	if s.x == nil {
		s.x = core.Convert(s.tr, core.Options{})
	}
	return s.x
}

// opKind is a request kind. Each is one HTTP request to the server.
type opKind int

const (
	kClassify  opKind = iota // POST /classify?k=10 (default rerank)
	kAdd                     // POST /traces
	kLabels                  // POST /labels for this connection's unlabelled adds
	kDelete                  // DELETE /traces/{id}
	kSimilarID               // GET /similar?id=&k=10 (exact, by id)
	nKinds
)

var kindNames = [nKinds]string{"classify", "add", "labels", "delete", "similar_id"}

func (k opKind) String() string { return kindNames[k] }

// op is one timed request. s is the body sample (classify, add); id the
// target of a by-id query, or for a delete -(n+1) to name the
// connection's n-th add, whose id the server assigns at run time.
type op struct {
	kind opKind
	s    *sample
	id   int
}

// workload is the fixed request list of one run: the prefill and one op
// list per closed-loop connection. Everything in it is a function of the
// seed and the run length alone.
type workload struct {
	name   string
	shards int // 1 = single engine

	snapshotEvery int       // iokserve -snapshot-every; 0 = the default
	refs          []*sample // the reference library, the same in every run
	annProbe      []*sample // default-rerank probe queries, the same in every run
	annRounds     int       // times the probe is sent, one per nominal second
	conns         [][]op    // one list per connection
	primary       opKind    // the kind p50_ms/p99_ms report
	probe         *sample   // the add-then-delete probe of the check battery
	queries       []*sample // oracle, recall and stream-check queries (never ingested)
	byID          []int     // prefill ids sampled for by-id checks (never deleted)
}

// prefillBatch is the number of traces per POST /traces/batch in set-up.
const prefillBatch = 64

// conns is the closed-loop client count: the host has two cores, and
// callers of this service wait for each answer.
const conns = 2

// librarySeed seeds the reference library and the default-rerank probe
// queries. They do not depend on --seed: a site's library of known
// access patterns is fixed while the jobs it classifies vary, and the
// probe's verdict on the ANN contract is then the same in every run.
const librarySeed = 0x10ca57

// annProbeQueries is the size of the default-rerank probe: two unseen
// traces of each category.
const annProbeQueries = 12

// buildWorkload generates the request list of a workload. seconds scales
// the amount of work (a nominal per-second op budget calibrated on a
// 2-core host); the run is fixed work, not fixed time, so two runs of one
// (seed, seconds) send identical requests.
func buildWorkload(name string, seed uint64, seconds int) (*workload, error) {
	lib := newGen(librarySeed)
	w := &workload{name: name, shards: 1, annRounds: seconds}
	w.annProbe = lib.drawN(annProbeQueries, allCats)
	// The run's own traces are drawn from --seed; sharing the library's
	// record of drawn texts keeps them unseen against it.
	g := newGen(seed)
	g.seen = lib.seen
	switch name {
	case "classify":
		// A read-only service: a labelled corpus is queried by unseen
		// traces. Parse, convert, embed, ANN probe, rerank and vote are
		// on the blocking path; writes happen only in set-up.
		w.refs = lib.drawN(384, allCats)
		n := 160 * seconds
		qs := g.drawN(n, allCats)
		w.conns = split(n, func(i int) op { return op{kind: kClassify, s: qs[i]} })
		w.primary = kClassify
	case "ingest":
		// A durable write path: single adds, each paying O(N) kernel
		// evaluations, a Gram row, a WAL append and an fsync. The snapshot
		// cadence puts one automatic snapshot after 80% of the adds, so a
		// restart loads it and replays the remaining 20% from the WAL.
		// The adds are labelled after the timed phase: a POST /labels
		// that meets a snapshot fails now and then (see the README).
		w.refs = lib.drawN(256, allCats)
		n := 64 * seconds
		w.snapshotEvery = len(w.refs) + 4*n/5
		as := g.drawN(n, allCats)
		w.conns = split(n, func(i int) op { return op{kind: kAdd, s: as[i]} })
		w.primary = kAdd
	case "mixed":
		// Reads contend with writes on a 4-shard corpus: a writer adds,
		// labels and deletes while a reader runs exact by-id queries,
		// queries and classifications.
		w.shards = 4
		w.refs = lib.drawN(384, allCats)
		rounds := 18 * seconds
		writer := make([]op, 0, 4*rounds)
		reader := make([]op, 0, 4*rounds)
		for r := 0; r < rounds; r++ {
			writer = append(writer,
				op{kind: kAdd, s: g.draw(allCats[(2*r)%len(allCats)])},
				op{kind: kAdd, s: g.draw(allCats[(2*r+1)%len(allCats)])},
				op{kind: kLabels})
			if r > 0 {
				// The first trace the writer added in the previous round.
				writer = append(writer, op{kind: kDelete, id: -(2*(r-1) + 1)})
			}
			for j := 0; j < 3; j++ {
				reader = append(reader, op{kind: kSimilarID, id: (7 * (3*r + j)) % len(w.refs)})
			}
			reader = append(reader, op{kind: kClassify, s: g.draw(allCats[r%len(allCats)])})
		}
		// Round 0 deletes nothing, so the last round's delete closes the
		// list: every round then costs the same four writer ops.
		writer = append(writer, op{kind: kDelete, id: -(2*(rounds-1) + 1)})
		w.conns = [][]op{writer, reader}
		w.primary = kSimilarID
	default:
		return nil, fmt.Errorf("unknown workload %q (want classify, ingest or mixed)", name)
	}
	w.probe = g.draw(iogen.CatRandomPOSIX)
	w.queries = g.drawN(6, allCats)
	w.byID = []int{3, 40, 77, 114}
	return w, nil
}

// split deals n ops round-robin onto the connections.
func split(n int, mk func(i int) op) [][]op {
	out := make([][]op, conns)
	for i := 0; i < n; i++ {
		out[i%conns] = append(out[i%conns], mk(i))
	}
	return out
}

func (w *workload) attempted() int {
	n := 0
	for _, c := range w.conns {
		n += len(c)
	}
	return n
}
