package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ksettop/internal/cli"
	"ksettop/internal/serve"
)

// Workload inputs are a pure function of the seed: the same seed replays the
// same list in the same order, and every size rule below is a property of the
// input itself (process count, edge probability, closure rank-space size),
// never of anything measured while the benchmark runs.

// Size rules.
const (
	// solveMaxRanks caps query-cold /v1/solve inputs (its octaves stay
	// within it): the server sweeps the model's whole closure before
	// solving, so a larger rank space is a different workload (engine-bound
	// search), not a query.
	solveMaxRanks = 1 << 10
	// bettiMaxRanks caps /v1/betti inputs; with the edge-probability floors
	// in bettiMinP it keeps the protocol complex small enough that one
	// unlucky draw cannot take most of a run.
	bettiMaxRanks = 16
	// The sweep window: below it a count is too small to shard (the
	// coordinator declines under 4096 ranks, and tiny sweeps measure only
	// HTTP); above it the 4,194,304-rank enumeration budget comes close.
	sweepMinLog2 = 16
	sweepMaxLog2 = 21
	// hotModels bounds the query-hot working set, far below the memo
	// capacities (256 models, 256 symmetric closures, 512 counts).
	hotModels = 64
	// hotMaxRanks caps the closures query-hot solves (its Betti requests are
	// n = 3 within bettiMaxRanks), so engine work per hot request stays under
	// a millisecond and the serve path dominates.
	hotMaxRanks = 64
)

// bettiMinP is the lowest edge probability a query-cold /v1/betti draw may
// use, per process count.
var bettiMinP = map[int]float64{4: 0.70, 5: 0.85}

// Query is one operation of a query or sweep workload.
type Query struct {
	Endpoint string // bounds | solve | betti | count
	Model    string // cli.ParseModel spec
	Rounds   int    // bounds
	Values   int    // solve, betti
	K        int    // solve
	MaxDim   int    // betti
}

// Body renders the request JSON the daemon receives.
func (q Query) Body() []byte {
	var v any
	switch q.Endpoint {
	case "bounds":
		v = serve.BoundsRequest{Model: q.Model, Rounds: q.Rounds}
	case "solve":
		v = serve.SolveRequest{Model: q.Model, Values: q.Values, K: q.K}
	case "betti":
		v = serve.BettiRequest{Model: q.Model, Values: q.Values, MaxDim: q.MaxDim}
	case "count":
		v = serve.CountRequest{Model: q.Model}
	default:
		panic("perfbench: unknown endpoint " + q.Endpoint)
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return b
}

func (q Query) String() string { return q.Endpoint + " " + string(q.Body()) }

// rngFor derives an independent stream for one workload from the seed.
func rngFor(seed uint64, workload string) *rand.Rand {
	h := seed
	for _, c := range workload {
		h = splitmix64(h ^ uint64(c))
	}
	return rand.New(rand.NewSource(int64(splitmix64(h))))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawer draws distinct random models: a draw whose minimal generator set
// was already drawn is rejected, so every model is a memo miss on a fresh
// server. Draws are edge masks (bit u·n+v = edge u→v), so the size rules are
// checked without building the model.
type drawer struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newDrawer(seed uint64, workload string) *drawer {
	return &drawer{rng: rngFor(seed, workload), seen: map[string]bool{}}
}

// draw returns a distinct model on n processes with 1–2 generators, each
// directed edge u→v (u ≠ v) present with probability p drawn uniformly from
// [pLo, pHi), and closure rank-space size in [minRanks, maxRanks] (0 = no
// bound).
func (d *drawer) draw(n int, pLo, pHi float64, minRanks, maxRanks int64) (string, error) {
	for tries := 0; tries < 1_000_000; tries++ {
		masks := make([]uint64, 1+d.rng.Intn(2))
		p := pLo + d.rng.Float64()*(pHi-pLo)
		for g := range masks {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if v != u && d.rng.Float64() < p {
						masks[g] |= 1 << (u*n + v)
					}
				}
			}
		}
		minimal := minimalMasks(masks)
		size := rankSpace(n, minimal)
		if size < minRanks || (maxRanks > 0 && size > maxRanks) {
			continue
		}
		key := fmt.Sprint(n, minimal)
		if d.seen[key] {
			continue
		}
		d.seen[key] = true
		return formatSpec(n, masks), nil
	}
	return "", fmt.Errorf("perfbench: no n=%d model with p in [%.2f,%.2f) and %d–%d ranks", n, pLo, pHi, minRanks, maxRanks)
}

// minimalMasks drops duplicate generators and those containing another (a
// superset generates a subset of the closure), sorted: the canonical
// generator set of the model.
func minimalMasks(masks []uint64) []uint64 {
	var out []uint64
	for i, m := range masks {
		redundant := false
		for j, o := range masks {
			if j != i && m&o == o && (m != o || j < i) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

// rankSpace is the closure enumeration's rank-space size, Σ 2^(missing
// edges) over the minimal generators — what model.EnumerationSize reports.
func rankSpace(n int, minimal []uint64) int64 {
	var size int64
	for _, m := range minimal {
		size += 1 << (n*(n-1) - bits.OnesCount64(m))
	}
	return size
}

// formatSpec renders edge masks in the gens: wire grammar.
func formatSpec(n int, masks []uint64) string {
	var sb strings.Builder
	sb.WriteString("gens:")
	for g, m := range masks {
		if g > 0 {
			sb.WriteByte('|')
		}
		for u := 0; u < n; u++ {
			if u > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(strconv.Itoa(u))
			sb.WriteByte('>')
			first := true
			for v := 0; v < n; v++ {
				if m&(1<<(u*n+v)) == 0 {
					continue
				}
				if !first {
					sb.WriteByte(' ')
				}
				first = false
				sb.WriteString(strconv.Itoa(v))
			}
		}
	}
	return sb.String()
}

// coldOctaves are the rank-space octaves (2^(j−1), 2^j] a query-cold
// /v1/solve or /v1/betti op draws from, per process count. Engine cost grows
// with the rank space, so every op is assigned its octave by position; the
// octaves are those holding enough models for every op of a run to be
// distinct.
var coldOctaves = map[string]map[int][]int{
	"solve": {4: {4, 5, 6, 7}, 5: {4, 5, 6, 7, 8, 9, 10}, 6: {4, 5, 6, 7, 8, 9, 10}},
	"betti": {4: {4}, 5: {3, 4}},
}

// coldQueries is the query-cold list: distinct random models, endpoints in
// strict rotation bounds → solve → betti, process counts rotating within each
// endpoint (bounds and solve n = 4, 5, 6; betti n = 4, 5) and rank-space
// octaves rotating within each process count, so every stretch of the list
// has the same mix whatever the seed. It is the first count draws of
// coldDraws.
func coldQueries(seed uint64, count int) ([]Query, error) {
	return take(coldDraws(seed), count)
}

// coldDraws returns the query-cold list as a generator: call k returns op k.
func coldDraws(seed uint64) func() (Query, error) {
	d := newDrawer(seed, "query-cold")
	i := 0
	return func() (Query, error) {
		round := i / 3
		var q Query
		var err error
		switch i % 3 {
		case 0:
			q = Query{Endpoint: "bounds", Rounds: 1}
			q.Model, err = d.draw(4+round%3, 0.30, 0.90, 0, 0)
		case 1:
			n := 4 + round%3
			lo, hi := octave(coldOctaves["solve"][n], round/3)
			q = Query{Endpoint: "solve", Values: 2, K: 1}
			q.Model, err = d.draw(n, 0.30, 0.95, lo, hi)
		case 2:
			n := 4 + round%2
			lo, hi := octave(coldOctaves["betti"][n], round/2)
			q = Query{Endpoint: "betti", Values: 2, MaxDim: n - 2}
			q.Model, err = d.draw(n, bettiMinP[n], 0.95, lo, hi)
		}
		i++
		return q, err
	}
}

// take draws the first count queries of a generator.
func take(next func() (Query, error), count int) ([]Query, error) {
	out := make([]Query, 0, count)
	for len(out) < count {
		q, err := next()
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// stream is a workload's input list drawn on demand, so a run never runs out
// of inputs however fast the program under test answers: op i is always the
// generator's i-th draw. Only the distinct-model space of the size rules
// bounds it: over 120,000 query-cold ops (the n = 4 solve octave (8, 16] runs
// out first), far more for sweep.
type stream struct {
	mu   sync.Mutex
	qs   []Query
	next func() (Query, error)
}

// newStream draws the first prefix queries at once, outside any timed window.
func newStream(next func() (Query, error), prefix int) (*stream, error) {
	qs, err := take(next, prefix)
	if err != nil {
		return nil, err
	}
	return &stream{qs: qs, next: next}, nil
}

// at returns op i, drawing up to it if it is past what was drawn so far.
func (s *stream) at(i int) (Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.qs) <= i {
		q, err := s.next()
		if err != nil {
			return Query{}, fmt.Errorf("input %d: %w", i, err)
		}
		s.qs = append(s.qs, q)
	}
	return s.qs[i], nil
}

// octave is the rank range (2^(j−1), 2^j] of the k-th octave in rotation.
func octave(octaves []int, k int) (lo, hi int64) {
	j := octaves[k%len(octaves)]
	return 1<<(j-1) + 1, 1 << j
}

// sweepQueries is the sweep list: distinct random n=6 models whose rank
// space is a power of two in [2^16, 2^21]. The fill models all have the
// smallest size; window op i has 2^(17+i%5) ranks, so every five consecutive
// counts cover 2^17 … 2^21 once and the per-run work is fixed. An odd number
// of sizes puts the median latency inside one size's spread rather than in
// the gap between two.
func sweepQueries(seed uint64, fill, count int) (fillQs, window []Query, err error) {
	qs, err := take(sweepDraws(seed, fill), fill+count)
	if err != nil {
		return nil, nil, err
	}
	return qs[:fill], qs[fill:], nil
}

// sweepDraws returns the sweep list, fill first, as a generator.
func sweepDraws(seed uint64, fill int) func() (Query, error) {
	d := newDrawer(seed, "sweep")
	i := 0
	return func() (Query, error) {
		size := int64(1) << sweepMinLog2
		if i >= fill {
			size <<= 1 + (i-fill)%(sweepMaxLog2-sweepMinLog2)
		}
		i++
		spec, err := d.draw(6, 0.30, 0.40, size, size)
		return Query{Endpoint: "count", Model: spec}, err
	}
}

// namedHotModels are the paper's model families the hot set always holds.
var namedHotModels = []string{
	"star:n=3", "star:n=4", "stars:n=4,s=2", "stars:n=5,s=2",
	"cycle:n=3", "cycle:n=4", "cycle:n=5",
	"simple-star:n=3", "simple-star:n=4", "simple-star:n=5",
	"simple-cycle:n=3", "simple-cycle:n=4", "simple-cycle:n=5",
	"nonsplit:n=3", "nonsplit:n=4", "clique:n=4", "clique:n=5",
}

// hotOctaves are the rank-space octaves (2^(j−1), 2^j] the random hot
// models rotate through, per process count, so every seed's hot set has the
// same size mix.
var hotOctaves = map[int][]int{3: {1, 2, 3, 4, 5, 6}, 4: {2, 3, 4, 5, 6}, 5: {2, 3, 4, 5, 6}}

// hotRequests is the query-hot request set: the named families plus seeded
// random models up to hotModels, each asked for its bounds, its one-round
// consensus solvability when the closure is within hotMaxRanks, and its
// Betti numbers when the model is tiny (n = 3, closure within
// bettiMaxRanks). Each endpoint's list is in a seeded order.
func hotRequests(seed uint64) (map[string][]Query, error) {
	d := newDrawer(seed, "query-hot")
	specs := append([]string(nil), namedHotModels...)
	for k := 0; len(specs) < hotModels; k++ {
		n := 3 + k%3
		lo, hi := octave(hotOctaves[n], k/3)
		spec, err := d.draw(n, 0.30, 0.95, lo, hi)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	reqs := map[string][]Query{}
	for _, spec := range specs {
		m, err := cli.ParseModel(spec)
		if err != nil {
			return nil, err
		}
		n := m.N()
		reqs["bounds"] = append(reqs["bounds"], Query{Endpoint: "bounds", Model: spec, Rounds: 1})
		size, err := m.EnumerationSize()
		if err != nil {
			return nil, err
		}
		if size <= hotMaxRanks {
			reqs["solve"] = append(reqs["solve"], Query{Endpoint: "solve", Model: spec, Values: 2, K: 1})
		}
		if n == 3 && size <= bettiMaxRanks {
			reqs["betti"] = append(reqs["betti"], Query{Endpoint: "betti", Model: spec, Values: 2, MaxDim: n - 2})
		}
	}
	for _, ep := range []string{"bounds", "solve", "betti"} {
		list := reqs[ep]
		d.rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
	}
	return reqs, nil
}

// hotPick is op i of the query-hot stream. Every twenty operations are nine
// bounds, nine solve and two betti requests, and each endpoint walks its list
// round-robin, so any stretch of the stream asks for every hot model equally
// often.
func hotPick(reqs map[string][]Query, i int) Query {
	round, slot := i/20, i%20
	var list []Query
	var use int
	switch {
	case slot < 9:
		list, use = reqs["bounds"], round*9+slot
	case slot < 18:
		list, use = reqs["solve"], round*9+slot-9
	default:
		list, use = reqs["betti"], round*2+slot-18
	}
	return list[use%len(list)]
}
