package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"goldfinger/internal/cluster"
	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/obs"
)

// Quality floors every builder must meet against the sampled exact
// native ground truth, fingerprint loss included (about 0.95 for the
// exact SHF graph at n=5,000). They leave room for the run-to-run
// variation of the multi-core NNDescent and Hyrec schedules; they do not
// ask for bit-equal graphs.
var qualityFloor = map[string]float64{"cluster": 0.85, "nndescent": 0.85, "hyrec": 0.75}

// The builders in the order every workload builds them.
var builders = []string{"cluster", "nndescent", "hyrec"}

// buildSizes are the build workload's corpus and phase sizes.
type buildSizes struct {
	users, heldOut    int
	truthSamples      int
	recallSamples     int
	inserts, rewrites int // Online mutations per run; deletes = rewrites
}

func buildScale(tiny bool) buildSizes {
	if tiny {
		return buildSizes{users: 400, heldOut: 100, truthSamples: 50, recallSamples: 50, inserts: 150, rewrites: 50}
	}
	return buildSizes{users: 5000, heldOut: 1500, truthSamples: 200, recallSamples: 500, inserts: 2400, rewrites: 800}
}

// setupReps is how many times a run sets up, reporting the median.
const setupReps = 5

// runBuild is the build workload: generate and pack the corpus, then in
// rounds build its KNN graph with each builder and score every graph,
// serve held-out queries from the first round's cluster graph and apply a
// block of live mutations to an online maintainer seeded with it,
// in-process — the library path with no HTTP.
func runBuild(cfg config, rep *report) error {
	sz := buildScale(cfg.tiny)
	tr := newTracer(cfg.trace)

	var c *corpus
	var setups, packs []float64
	for i := 0; i < setupReps; i++ {
		c = nil
		runtime.GC()
		rep.cal.point()
		start := time.Now()
		var err error
		if c, err = makeCorpus(sz.users, sz.heldOut, cfg.seed); err != nil {
			return err
		}
		setups = append(setups, since(start))
		packs = append(packs, c.packS)
	}
	rep.prov.Corpus = &c.shape
	rep.e2e("setup_s", median(setups), "s")
	rep.layer("core.pack_s", median(packs), "s")
	logf("build: corpus n=%d generated and packed in %.2fs (median of %d)", sz.users, median(setups), setupReps)

	provider := knn.NewPackedSHFProvider(c.packed)
	truth := sampleTruth(c, graphK, sz.truthSamples, everyone(sz.users))
	rep.layer("core.shf_quality", truth.shfQuality(), "ratio")
	stride := float64(c.packed.Stride())

	type algoRuns struct {
		secs, quality, cpu, nsPerCmp []float64
		comparisons, iterations      []float64
		phases                       map[string][]float64
	}
	runs := map[string]*algoRuns{}
	for _, a := range builders {
		runs[a] = &algoRuns{phases: map[string][]float64{}}
	}
	var assignS []float64
	var search *librarySearch
	var mu *libraryMutator

	n := rounds(cfg.seconds)
	secs := float64(cfg.seconds) * float64(time.Second) / float64(n)
	latWin, capWin := time.Duration(secs*0.15), time.Duration(secs*0.2)
	for round := 0; round < n; round++ {
		if cfg.trace {
			// The cluster layer on its own: the bucketing the cluster
			// builder starts with.
			runtime.GC()
			t0 := time.Now()
			tr.timed("cluster.assign", 0, func() { cluster.Assign(c.packed, cluster.Config{Seed: cfg.seed}) })
			assignS = append(assignS, since(t0))
		}
		var clusterGraph *knn.Graph
		var asn *cluster.Assignment
		for _, algo := range builders {
			reg := obs.NewRegistry()
			opts := knn.Options{Seed: cfg.seed, Obs: reg}
			var g *knn.Graph
			var st knn.Stats
			runtime.GC()
			rep.cal.point()
			cpu0 := cpuSeconds()
			t0 := time.Now()
			tr.timed("knn."+algo+".build", 0, func() {
				switch algo {
				case "cluster":
					g, asn, st = knn.ClusterConquerWith(provider, graphK, opts, knn.ClusterConfig{})
				case "nndescent":
					g, st = knn.NNDescent(provider, graphK, opts)
				case "hyrec":
					g, st = knn.Hyrec(provider, graphK, opts)
				}
			})
			wall := since(t0)
			cpu := cpuSeconds() - cpu0
			rep.ops(1, 0)

			r := runs[algo]
			r.secs = append(r.secs, wall)
			r.cpu = append(r.cpu, cpu/(wall*float64(runtime.GOMAXPROCS(0))))
			r.comparisons = append(r.comparisons, float64(st.Comparisons))
			r.iterations = append(r.iterations, float64(st.Iterations))
			r.nsPerCmp = append(r.nsPerCmp, wall*1e9/float64(max(st.Comparisons, 1)))
			for name, h := range reg.Snapshot().Histograms {
				r.phases[name] = append(r.phases[name], h.Sum)
			}
			if err := g.Validate(); err != nil {
				rep.gate("%s graph failed Validate: %v", algo, err)
				rep.ops(0, 1)
			}
			for u, nbs := range g.Neighbors {
				if !c.checkEdges(rep, algo+" graph", u, nbs) {
					rep.ops(0, 1)
					break
				}
			}
			q := truth.quality(func(_, u int) []int32 { return ids(g.Neighbors[u]) })
			r.quality = append(r.quality, q)
			if q < qualityFloor[algo] {
				rep.gate("%s graph quality %.4f below its floor %.2f", algo, q, qualityFloor[algo])
				rep.ops(0, 1)
			}
			if algo == "cluster" {
				clusterGraph = g
			}
		}
		if round == 0 {
			// The first round's cluster graph serves every search and
			// seeds the online maintainer.
			t0 := time.Now()
			var nav *knn.Graph
			tr.timed("knn.navigable", 0, func() { nav = clusterGraph.Navigable(provider) })
			rep.layer("knn.navigable_s", since(t0), "s")
			var err error
			if mu, err = newLibraryMutator(sz, n, c, clusterGraph, nav, tr, rep); err != nil {
				return err
			}
			search = &librarySearch{cfg: cfg, c: c, nav: nav, asn: asn, tr: tr, rep: rep}
		}
		search.window(latWin, capWin)
		rep.cal.point()
		mu.block(round)
	}
	for _, algo := range builders {
		r := runs[algo]
		rep.e2e("build_"+algo+"_s", median(r.secs), "s")
		rep.e2e("quality_"+algo, median(r.quality), "ratio")
		cmp := median(r.comparisons)
		rep.layer("knn."+algo+".comparisons", cmp, "count")
		rep.layer("knn."+algo+".iterations", median(r.iterations), "count")
		rep.layer("knn."+algo+".ns_per_comparison", median(r.nsPerCmp), "ns")
		rep.layer("knn."+algo+".cpu_util", median(r.cpu), "share")
		rep.layer("bitset."+algo+".words_anded", cmp*stride, "count")
		rep.layer("bitset."+algo+".bytes_moved", cmp*2*stride*8, "B")
		for _, ph := range phasesOf(algo) {
			rep.layer("knn."+algo+".phase."+ph+"_s", median(r.phases["build.phase."+ph+".seconds"]), "s")
		}
		logf("build: %s median %.3fs over %d builds, quality %.4f; builds %s", algo, median(r.secs), len(r.secs), median(r.quality), fmtFloats(r.secs))
	}
	rep.layer("cluster.assign_s", median(assignS), "s")
	search.finish(sz, n)
	mu.finish()
	rep.layer("trace.spans", float64(spanCount(tr)), "count")
	return writeTrace(cfg, tr)
}

// phasesOf names the phase histograms each builder publishes.
func phasesOf(algo string) []string {
	if algo == "cluster" {
		return []string{"bucket", "scan", "merge", "refine"}
	}
	return []string{"init", "iterate"}
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// libraryQuery runs one held-out query the way the service's graph path
// does for a cluster epoch: a packed-corpus scorer, bucket-derived entry
// seeds layered on the default spread, and GraphSearch.
func libraryQuery(c *corpus, nav *knn.Graph, asn *cluster.Assignment, fp core.Fingerprint) ([]knn.Neighbor, knn.SearchStats, error) {
	n := c.packed.NumUsers()
	// 48 bucket-derived entries: the service's clusterQuerySeeds.
	seeds := knn.DefaultSeeds(asn.Seeds(fp.Bits().Words(), 48), n)
	return knn.GraphSearch(nav, c.packed.NewQueryScorer(fp), graphK, knn.SearchOptions{Seeds: seeds})
}

// librarySearch is the build workload's search phase: one window of
// sequential held-out queries (latency) and one of a closed-loop searcher
// per CPU (capacity) each round. It checks every answer, and finish scores
// recall on a fixed sample.
type librarySearch struct {
	cfg config
	c   *corpus
	nav *knn.Graph
	asn *cluster.Assignment
	tr  *tracer
	rep *report

	i                                              int // next held-out query
	lat, traced, untraced, hops, scored, abandoned []float64
	rates                                          []float64 // per capacity window, for the log
	answered                                       int64     // by the capacity windows
	capSecs                                        float64
}

func (s *librarySearch) window(latWin, capWin time.Duration) {
	c, rep := s.c, s.rep
	for start := time.Now(); time.Since(start) < latWin; s.i++ {
		i := s.i
		fp := c.held[i%len(c.held)]
		var res []knn.Neighbor
		var st knn.SearchStats
		var err error
		tracedOp := s.cfg.trace && i%2 == 0
		t0 := time.Now()
		if tracedOp {
			s.tr.timed("knn.search", int64(i+1), func() { res, st, err = libraryQuery(c, s.nav, s.asn, fp) })
		} else {
			res, st, err = libraryQuery(c, s.nav, s.asn, fp)
		}
		d := ms(time.Since(t0))
		s.lat = append(s.lat, d)
		if tracedOp {
			s.traced = append(s.traced, d)
		} else {
			s.untraced = append(s.untraced, d)
		}
		rep.ops(1, 0)
		if err != nil {
			rep.gate("library query %d: %v", i, err)
			rep.ops(0, 1)
			continue
		}
		if !checkHits(rep, "library query", c, fp, res, min(graphK, len(c.fps))) {
			rep.ops(0, 1)
		}
		s.hops = append(s.hops, float64(st.Hops))
		s.scored = append(s.scored, float64(st.Scored))
		s.abandoned = append(s.abandoned, float64(st.Abandoned))
	}
	done, secs := searchCapacity(c, s.nav, s.asn, capWin)
	s.answered += done
	s.capSecs += secs
	s.rates = append(s.rates, float64(done)/secs)
}

// finish scores recall and reports the search figures over n windows.
func (s *librarySearch) finish(sz buildSizes, n int) {
	c, rep, lat := s.c, s.rep, s.lat
	var recall []float64
	for _, fp := range c.held[:min(len(c.held), sz.recallSamples)] {
		res, _, err := libraryQuery(c, s.nav, s.asn, fp)
		if err == nil {
			recall = append(recall, recallOf(ids(res), exactQuery(c.packed, fp, graphK)))
		}
	}
	rep.prov.QuerySamples = len(lat)
	qps := float64(s.answered) / s.capSecs
	rep.e2e("query_p50_ms", pct(lat, 50), "ms")
	rep.e2e("query_p90_ms", tailPct(lat, n, 90), "ms")
	rep.layer("client.query_p99_ms", pct(lat, 99), "ms")
	rep.e2e("recall_at_10", mean(recall), "ratio")
	rep.layer("knn.search_p50_us", median(lat)*1000, "us")
	rep.layer("knn.search.hops", mean(s.hops), "count")
	rep.layer("knn.search.scored", mean(s.scored), "count")
	rep.layer("knn.search.abandoned", mean(s.abandoned), "count")
	rep.layer("trace.overhead_p50_ms", median(s.traced)-median(s.untraced), "ms")
	rep.e2e("saturated_qps", qps, "1/s")
	logf("build: library query p50 %.3fms p90 %.3fms over %d queries, %.0f q/s closed-loop, recall %.3f",
		pct(lat, 50), tailPct(lat, n, 90), len(lat), qps, mean(recall))
	logf("build: per window: query p50 %s; closed-loop rate %s", fmtFloats(blockPct(lat, n, 50)), fmtFloats(s.rates))
}

// searchCapacity runs one closed-loop searcher per CPU for win and
// returns the queries answered and the seconds it took.
func searchCapacity(c *corpus, nav *knn.Graph, asn *cluster.Assignment, win time.Duration) (int64, float64) {
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Since(start) < win; i += nproc() {
				if _, _, err := libraryQuery(c, nav, asn, c.held[i%len(c.held)]); err == nil {
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return done.Load(), since(start)
}

// libraryMutator applies inserts, overwrites and deletes to an online
// maintainer seeded with the cluster graph, one block per round of n,
// timing each call.
type libraryMutator struct {
	sz      buildSizes
	n       int
	c       *corpus
	o       *knn.Online
	tr      *tracer
	rep     *report
	next    int32 // next insert's node id
	all     []float64
	perKind map[string][]float64
	cmp     int64
}

func newLibraryMutator(sz buildSizes, rounds int, c *corpus, g, nav *knn.Graph, tr *tracer, rep *report) (*libraryMutator, error) {
	n := len(c.fps)
	o, err := knn.NewOnline(g, nav, append([]core.Fingerprint(nil), c.fps...), nil, graphK, uint64(n))
	if err != nil {
		return nil, fmt.Errorf("seeding the online maintainer: %w", err)
	}
	return &libraryMutator{sz: sz, n: rounds, c: c, o: o, tr: tr, rep: rep, next: int32(n), perKind: map[string][]float64{}}, nil
}

func (m *libraryMutator) op(kind string, f func() (knn.MutationResult, error)) {
	var res knn.MutationResult
	var err error
	t0 := time.Now()
	m.tr.timed("knn.online."+kind, 0, func() { res, err = f() })
	d := ms(time.Since(t0))
	m.rep.ops(1, 0)
	if err != nil {
		m.rep.gate("online %s: %v", kind, err)
		m.rep.ops(0, 1)
		return
	}
	m.all = append(m.all, d)
	m.perKind[kind] = append(m.perKind[kind], d)
	m.cmp += int64(res.Comparisons)
}

// block b inserts fresh users, overwrites seeded ones and deletes some of
// the block's own inserts, in knnload's documented mix: 60% inserts, 20%
// overwrites, 20% deletes.
func (m *libraryMutator) block(b int) {
	n, held := len(m.c.fps), m.c.held
	ins, rw := m.sz.inserts/m.n, m.sz.rewrites/m.n
	first := m.next
	for i := 0; i < ins; i++ {
		fp := held[(b*ins+i)%len(held)]
		m.op("insert", func() (knn.MutationResult, error) { _, r := m.o.Insert(fp); return r, nil })
		m.next++
	}
	for i := 0; i < rw; i++ {
		id := int32((i*m.n + b) * n / (rw * m.n))
		fp := held[(b*rw+i+1)%len(held)]
		m.op("overwrite", func() (knn.MutationResult, error) { return m.o.Overwrite(id, fp) })
	}
	for i := 0; i < rw; i++ {
		id := first + int32(i)
		m.op("delete", func() (knn.MutationResult, error) { return m.o.Delete(id) })
	}
}

// finish checks that every deleted node is dead and reports the timings.
func (m *libraryMutator) finish() {
	n, rep := len(m.c.fps), m.rep
	ins, rw := m.sz.inserts/m.n, m.sz.rewrites/m.n
	snap := m.o.Snapshot()
	for b := 0; b < m.n; b++ {
		for i := 0; i < rw; i++ {
			if id := n + b*ins + i; !snap.Dead[id] {
				rep.gate("online: deleted node %d is not dead in the snapshot", id)
			}
		}
	}
	rep.prov.MutateSamples = len(m.all)
	rep.e2e("mutate_p50_ms", pct(m.all, 50), "ms")
	rep.e2e("mutate_p90_ms", tailPct(m.all, m.n, 90), "ms")
	rep.layer("client.mutate_p99_ms", pct(m.all, 99), "ms")
	logf("build: online mutations per window: p50 %s; p90 %s", fmtFloats(blockPct(m.all, m.n, 50)), fmtFloats(blockPct(m.all, m.n, 90)))
	for _, kind := range []string{"insert", "overwrite", "delete"} {
		rep.layer("knn.online."+kind+"_mean_ms", mean(m.perKind[kind]), "ms")
	}
	rep.layer("knn.online.comparisons_per_mutation", ratio(float64(m.cmp), float64(len(m.all))), "count")
}

func ids(nbs []knn.Neighbor) []int32 {
	out := make([]int32, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.ID
	}
	return out
}

// checkHits gates one library answer: exactly want hits, ordered by
// similarity, each similarity the exact Jaccard of the query and the hit.
func checkHits(rep *report, what string, c *corpus, q core.Fingerprint, res []knn.Neighbor, want int) bool {
	if len(res) != want {
		rep.gate("%s: %d hits, want %d", what, len(res), want)
		return false
	}
	for i, nb := range res {
		if i > 0 && nb.Sim > res[i-1].Sim {
			rep.gate("%s: hits not ordered by similarity", what)
			return false
		}
		if exact := core.Jaccard(q, c.fps[nb.ID]); exact != nb.Sim {
			rep.gate("%s: hit %d similarity %v, exact %v", what, nb.ID, nb.Sim, exact)
			return false
		}
	}
	return true
}

// writeTrace saves a traced run's spans under the working directory.
func writeTrace(cfg config, tr *tracer) error {
	if tr == nil {
		return nil
	}
	return tr.write(fmt.Sprintf("%s/trace-%s-seed%d.jsonl", cfg.workdir, cfg.workload, cfg.seed))
}
