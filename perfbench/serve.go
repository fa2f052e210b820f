package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"goldfinger/internal/knn"
	"goldfinger/internal/service"
)

// serveKind is one serving workload.
type serveKind struct {
	name   string
	shards int
	churn  bool // half the traffic mutates
	// openQPS is the open-loop phase's fixed request rate, set once
	// below the workload's closed-loop saturated_qps (see README.md) and
	// never recomputed per run.
	openQPS float64
	// closedQPS sizes the closed-loop phase: it sends closedQPS requests
	// per second of its share of the run, a fixed count, so every run
	// applies the same mutations however fast the machine is. It is set
	// once near the workload's measured saturated_qps.
	closedQPS float64
}

var (
	serveChurn  = serveKind{name: "churn", shards: 1, churn: true, openQPS: 220, closedQPS: 800}
	serveRouted = serveKind{name: "routed-read", shards: 3, openQPS: 330, closedQPS: 1300}
)

// serveSizes are a serving workload's corpus and probe sizes.
type serveSizes struct {
	users, heldOut int
	qualitySamples int
	recallSamples  int
	probeMutations int // read workloads' mutation probe
	openQPS        float64
	closedQPS      float64
}

func serveScale(kind serveKind, tiny bool) serveSizes {
	if tiny {
		return serveSizes{users: 300, heldOut: 100, qualitySamples: 30, recallSamples: 50, probeMutations: 60, openQPS: 100, closedQPS: 200}
	}
	return serveSizes{users: 5000, heldOut: 1500, qualitySamples: 100, recallSamples: 400, probeMutations: 1500, openQPS: kind.openQPS, closedQPS: kind.closedQPS}
}

// Operation kinds.
const (
	opQuery byte = iota
	opInsert
	opOverwrite
	opDelete
)

var opNames = [...]string{"query", "insert", "overwrite", "delete"}

// op is one request the generator sends and what came back.
type op struct {
	kind byte
	slot int // target user's dense slot (mutations)
	fp   int // held-out fingerprint index (queries, inserts, overwrites)
	req  int64

	due, sent, done int64 // ns since the traffic clock's start
	status          int
	partial         string // X-Partial-Results
	body            []byte // /query reply, decoded by the checks
	hits            []hit
	err             error
}

type hit struct {
	slot int
	sim  float64
}

// latMS is the op's latency: from when it was due (open loop; equal to
// sent in the closed loop) to its reply.
func (o *op) latMS() float64 { return float64(o.done-o.due) / 1e6 }

// userID names dense slot i. Seeded users take slots [0, n), inserted
// users the slots after.
func userID(slot int) string { return fmt.Sprintf("u%07d", slot) }

func slotOf(id string) (int, bool) {
	if !strings.HasPrefix(id, "u") {
		return 0, false
	}
	v, err := strconv.Atoi(id[1:])
	return v, err == nil
}

// generator issues the workload's requests over at most nproc
// connections and keeps every op for the checks.
type generator struct {
	kind   serveKind
	c      *corpus
	url    string
	client *http.Client
	tr     *tracer
	seed   int64
	t0     time.Time

	reqs     atomic.Int64
	inserts  atomic.Int64 // next insert slot offset
	rewrites atomic.Int64 // next overwrite target
	deletes  atomic.Int64 // next delete target
	targets  []int        // seeded slots: deletes from the front, overwrites from the back

	mu  sync.Mutex
	ops []*op
}

func newGenerator(kind serveKind, c *corpus, url string, tr *tracer, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return &generator{
		kind: kind, c: c, url: url, tr: tr, seed: seed,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: nproc(),
			MaxConnsPerHost:     nproc(),
			IdleConnTimeout:     90 * time.Second,
		}},
		t0:      time.Now(),
		targets: rng.Perm(len(c.fps)),
	}
}

func (g *generator) now() int64 { return int64(time.Since(g.t0)) }

// next draws the i-th op of the traffic mix from the seed.
func (g *generator) next(i int64, mix bool) *op {
	r := splitmix(uint64(g.seed)<<20 ^ uint64(i))
	o := &op{kind: opQuery, fp: int(r>>32) % len(g.c.held)}
	if !mix || r%2 == 0 {
		return o
	}
	// Mutations follow knnload's documented mix (-delmix 0.2, and one PUT
	// in four on a seeded id): 20% deletes and 20% overwrites of seeded
	// users, 60% inserts of fresh ids. It is not fitted to real traffic.
	switch pick := (r >> 8) % 10; {
	case pick < 2:
		if j := g.deletes.Add(1) - 1; int(j) < len(g.targets)/2 {
			return &op{kind: opDelete, slot: g.targets[j]}
		}
	case pick < 4:
		if j := g.rewrites.Add(1) - 1; int(j) < len(g.targets)/2 {
			return &op{kind: opOverwrite, slot: g.targets[len(g.targets)-1-int(j)], fp: o.fp}
		}
	}
	return &op{kind: opInsert, slot: len(g.c.fps) + int(g.inserts.Add(1)-1), fp: o.fp}
}

// mutationOp draws the i-th op of a read workload's mutation probe.
func (g *generator) mutationOp(i int64) *op {
	for {
		if o := g.next(i, true); o.kind != opQuery {
			return o
		}
		i += 1 << 40
	}
}

// sleepPrecise blocks the calling thread in nanosleep: time.Sleep wakes
// through the runtime's poller, whose millisecond timeout would make the
// generator itself up to a millisecond late on every open-loop request.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// do sends one op and records it. Every other request of a traced run
// carries span headers; the rest measure the untraced cost in the same
// conditions.
func (g *generator) do(o *op) {
	o.req = g.reqs.Add(1)
	var method, path string
	var body []byte
	switch o.kind {
	case opQuery:
		method, path, body = http.MethodPost, "/query?k="+strconv.Itoa(graphK)+"&mode=auto", g.c.hbody[o.fp]
	case opInsert, opOverwrite:
		method, path, body = http.MethodPut, "/users/"+userID(o.slot)+"/fingerprint", g.c.hbody[o.fp]
	case opDelete:
		method, path = http.MethodDelete, "/users/"+userID(o.slot)+"/fingerprint"
	}
	req, err := http.NewRequest(method, g.url+path, bytes.NewReader(body))
	if err != nil {
		o.err = err
		g.keep(o)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	traced := g.tr != nil && o.req%2 == 0
	var id, start int64
	if traced {
		id, start = g.tr.newID(), g.tr.now()
		setRef(req.Header, spanRef{req: o.req, span: id})
	}
	if o.sent == 0 {
		o.sent = g.now()
	}
	if o.due == 0 {
		o.due = o.sent
	}
	resp, err := g.client.Do(req)
	if err != nil {
		o.err = err
	} else {
		o.status = resp.StatusCode
		o.partial = resp.Header.Get("X-Partial-Results")
		o.body, o.err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.done = g.now()
	if traced {
		g.tr.add(span{Name: "client." + opNames[o.kind], ID: id, Req: o.req, Start: start, End: g.tr.now()})
	}
	g.keep(o)
}

func decodeHits(data []byte, out *[]hit) error {
	var hits []service.NeighborJSON
	if err := json.Unmarshal(data, &hits); err != nil {
		return fmt.Errorf("decoding hits: %w", err)
	}
	for _, h := range hits {
		slot, ok := slotOf(h.User)
		if !ok {
			return fmt.Errorf("unknown user %q", h.User)
		}
		*out = append(*out, hit{slot: slot, sim: h.Similarity})
	}
	return nil
}

func (g *generator) keep(o *op) {
	g.mu.Lock()
	g.ops = append(g.ops, o)
	g.mu.Unlock()
}

// openLoop sends ops at a fixed rate for dur, each due at start + i/rate
// whether or not earlier ones have returned, over nproc connections.
func (g *generator) openLoop(rate float64, dur time.Duration, base int64, mix bool) (from, to int64) {
	from = g.now()
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1) - 1
				due := from + int64(float64(i)/rate*1e9)
				if due >= from+int64(dur) {
					return
				}
				if wait := due - g.now(); wait > 0 {
					sleepPrecise(time.Duration(wait))
				}
				o := g.next(base+i, mix)
				o.due, o.sent = due, g.now()
				g.do(o)
			}
		}()
	}
	wg.Wait()
	return from, g.now()
}

// closedLoop runs clients clients, each sending its next op when the last
// one returns, for dur (or, with count > 0, until count ops were sent).
func (g *generator) closedLoop(clients int, dur time.Duration, count int64, draw func(i int64) *op) (from, to int64) {
	from = g.now()
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1) - 1
				if (count > 0 && i >= count) || (count == 0 && g.now()-from >= int64(dur)) {
					return
				}
				g.do(draw(i))
			}
		}()
	}
	wg.Wait()
	return from, g.now()
}

// opsBetween returns the kept ops sent in [from, to).
func (g *generator) opsBetween(from, to int64) []*op {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []*op
	for _, o := range g.ops {
		if o.sent >= from && o.sent < to {
			out = append(out, o)
		}
	}
	return out
}

// post sends a request outside the traffic phases (seeding, builds,
// neighbor reads) and returns the status and body.
func (g *generator) send(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, g.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// seed uploads every corpus user with nproc concurrent PUTs.
func (g *generator) seedCorpus(rep *report) error {
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(g.c.fps) {
					return
				}
				status, body, err := g.send(http.MethodPut, "/users/"+userID(i)+"/fingerprint", g.c.bodies[i])
				if err != nil || status != http.StatusNoContent {
					if failed.Add(1) == 1 {
						rep.gate("seeding %s: status %d %v %s", userID(i), status, err, bytes.TrimSpace(body))
					}
				}
			}
		}()
	}
	wg.Wait()
	rep.ops(int64(len(g.c.fps)), failed.Load())
	if failed.Load() > 0 {
		return fmt.Errorf("%d seeding PUTs failed", failed.Load())
	}
	return nil
}

// buildGraph runs POST /graph/build for algo and returns the client's
// wall time, the process CPU time it took, and the total comparisons and
// the largest iteration count over the shards that built.
func (g *generator) buildGraph(algo string, rep *report) (wall, cpu float64, cmp int64, iters int, err error) {
	cpu0 := cpuSeconds()
	start := time.Now()
	status, body, err := g.send(http.MethodPost, "/graph/build?k="+strconv.Itoa(graphK)+"&algo="+algo, nil)
	wall, cpu = since(start), cpuSeconds()-cpu0
	rep.ops(1, 0)
	if err != nil || status != http.StatusOK {
		rep.ops(0, 1)
		return 0, 0, 0, 0, fmt.Errorf("POST /graph/build algo=%s: status %d %v %s", algo, status, err, bytes.TrimSpace(body))
	}
	var results []service.BuildResult
	if g.kind.shards == 1 {
		var br service.BuildResult
		err = json.Unmarshal(body, &br)
		results = append(results, br)
	} else {
		var routed struct {
			Shards map[string]service.BuildResult `json:"shards"`
		}
		err = json.Unmarshal(body, &routed)
		for _, br := range routed.Shards {
			results = append(results, br)
		}
	}
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("decoding build reply: %w", err)
	}
	for _, br := range results {
		cmp += br.Comparisons
		iters = max(iters, br.Iterations)
	}
	return wall, cpu, cmp, iters, nil
}

// runServing is the shared body of the serving workloads: set the stack
// up (median of several set-ups), build the graph with every builder
// through the service, run the open-loop and closed-loop traffic phases,
// probe mutations on the read workloads, and check every reply.
func runServing(cfg config, kind serveKind, rep *report) error {
	sz := serveScale(kind, cfg.tiny)
	c, err := makeCorpus(sz.users, sz.heldOut, cfg.seed)
	if err != nil {
		return err
	}
	if err := c.encodeBodies(); err != nil {
		return err
	}
	rep.prov.Corpus = &c.shape
	rep.prov.OpenLoopQPS = sz.openQPS
	rep.prov.ClosedLoopClients = nproc()
	rep.prov.Fsync = fsyncPolicy.String()
	rep.prov.Shards = kind.shards
	tr := newTracer(cfg.trace)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	base, err := os.MkdirTemp(cfg.workdir, kind.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// Set-up: a fresh stack, seeded by PUT and built with algo=cluster,
	// several times. The last one serves the traffic. The one before it
	// stays up as the build stack: the builds interleaved with the
	// traffic rounds run there, on the seeded corpus the traffic does not
	// touch.
	var d, bd *deployment
	var g, bg *generator
	stop := func(d *deployment, g *generator) {
		if d != nil {
			g.client.CloseIdleConnections()
			d.close()
		}
	}
	defer func() {
		stop(d, g)
		stop(bd, bg)
	}()
	var setups, clusterBuilds []float64
	for i := 0; i < setupReps; i++ {
		if i == setupReps-1 {
			bd, bg = d, g
		} else {
			stop(d, g)
		}
		d, g = nil, nil
		runtime.GC()
		rep.cal.point()
		start := time.Now()
		if d, err = deploy(kind.shards, filepath.Join(base, strconv.Itoa(i)), tr); err != nil {
			return err
		}
		g = newGenerator(kind, c, d.url, tr, cfg.seed)
		if err = g.seedCorpus(rep); err != nil {
			return err
		}
		var wall float64
		if wall, _, _, _, err = g.buildGraph("cluster", rep); err != nil {
			return err
		}
		setups = append(setups, since(start))
		clusterBuilds = append(clusterBuilds, wall)
	}
	rep.e2e("setup_s", median(setups), "s")
	logf("%s: set up n=%d in %.2fs (median of %d: %s)", kind.name, sz.users, median(setups), setupReps, fmtFloats(setups))

	truth := servedTruth(kind, sz, c, d)
	rep.layer("core.shf_quality", truth.shfQuality(), "ratio")
	// The traffic stack's own graph, built in its set-up.
	q, err := servedQuality(g, truth, rep)
	if err != nil {
		return err
	}
	if q < qualityFloor["cluster"] {
		rep.gate("served cluster graph quality %.4f below its floor %.2f", q, qualityFloor["cluster"])
		rep.ops(0, 1)
	}
	sb := &servedBuilds{kind: kind, c: c, d: bd, g: bg, truth: truth, rep: rep,
		secs: map[string][]float64{"cluster": clusterBuilds}, quality: map[string][]float64{},
		phases: map[string]float64{}, counts: map[string]float64{}}
	if err := traffic(cfg, kind, sz, c, d, g, tr, rep, sb.round); err != nil {
		return err
	}
	sb.finish()
	rep.layer("trace.spans", float64(spanCount(tr)), "count")
	return writeTrace(cfg, tr)
}

func spanCount(tr *tracer) int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// servedBuilds runs the builds of a serving workload through
// POST /graph/build on the build stack, two per traffic round in the
// rotation NNDescent, Hyrec, cluster, and scores each graph's served
// neighborhoods.
type servedBuilds struct {
	kind  serveKind
	c     *corpus
	d     *deployment
	g     *generator
	truth groundTruth
	rep   *report
	next  int // position in the rotation

	secs, quality map[string][]float64 // cluster's secs start with the set-up builds'
	phases        map[string]float64   // summed per-layer figures, by metric name
	counts        map[string]float64   // builds behind each summed figure
}

var rotation = []string{"nndescent", "hyrec", "cluster"}

func (sb *servedBuilds) round(int) error {
	for i := 0; i < 2; i++ {
		algo := rotation[sb.next%len(rotation)]
		sb.next++
		if err := sb.build(algo); err != nil {
			return err
		}
	}
	return nil
}

func (sb *servedBuilds) build(algo string) error {
	d, rep := sb.d, sb.rep
	before := d.counters()
	runtime.GC()
	rep.cal.point()
	wall, cpu, cmp, iters, err := sb.g.buildGraph(algo, rep)
	if err != nil {
		return err
	}
	after := d.counters()
	sb.secs[algo] = append(sb.secs[algo], wall)
	q, err := servedQuality(sb.g, sb.truth, rep)
	if err != nil {
		return err
	}
	if q < qualityFloor[algo] {
		rep.gate("served %s graph quality %.4f below its floor %.2f", algo, q, qualityFloor[algo])
		rep.ops(0, 1)
	}
	sb.quality[algo] = append(sb.quality[algo], q)

	perShard := float64(len(d.cores))
	phase := func(name string) float64 {
		return (after["build.phase."+name+".seconds.sum"] - before["build.phase."+name+".seconds.sum"]) / perShard
	}
	stride := float64(sb.c.packed.Stride())
	add := func(name string, v float64) {
		sb.phases[name] += v
		sb.counts[name]++
	}
	for _, ph := range phasesOf(algo) {
		add("knn."+algo+".phase."+ph+"_s", phase(ph))
	}
	if algo == "cluster" {
		add("cluster.assign_s", phase("bucket"))
	}
	add("knn."+algo+".comparisons", float64(cmp))
	add("knn."+algo+".iterations", float64(iters))
	add("knn."+algo+".ns_per_comparison", wall*1e9/float64(max(cmp, 1)))
	add("knn."+algo+".cpu_util", cpu/(wall*float64(runtime.GOMAXPROCS(0))))
	add("bitset."+algo+".words_anded", float64(cmp)*stride)
	add("bitset."+algo+".bytes_moved", float64(cmp)*2*stride*8)
	return nil
}

// finish reports the build times and qualities, and the per-layer means.
func (sb *servedBuilds) finish() {
	rep := sb.rep
	for _, algo := range builders {
		rep.e2e("build_"+algo+"_s", median(sb.secs[algo]), "s")
		rep.e2e("quality_"+algo, median(sb.quality[algo]), "ratio")
		logf("%s: %s build %.3fs (median of %d), served quality %.4f; builds %s", sb.kind.name, algo,
			median(sb.secs[algo]), len(sb.secs[algo]), median(sb.quality[algo]), fmtFloats(sb.secs[algo]))
	}
	for name, sum := range sb.phases {
		rep.layer(name, sum/sb.counts[name], unitOf(name))
	}
	// The service packs its corpus once, in the set-up build, and reuses
	// the packing until a mutation lands.
	rep.layer("core.pack_s", sb.d.counters()["build.phase.pack.seconds.sum"]/float64(len(sb.d.cores)), "s")
}

// unitOf is a per-layer metric's declared unit.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// servedTruth samples users and their exact neighborhoods within the
// shard that owns them — the neighborhood a shard-core's graph can hold.
func servedTruth(kind serveKind, sz serveSizes, c *corpus, d *deployment) groundTruth {
	if kind.shards == 1 {
		return sampleTruth(c, graphK, sz.qualitySamples, everyone(len(c.fps)))
	}
	place := d.rt.Placement()
	members := make([][]int32, kind.shards)
	for i := range c.fps {
		s := place.Owner(userID(i))
		members[s] = append(members[s], int32(i))
	}
	return sampleTruth(c, graphK, sz.qualitySamples, func(u int) []int32 { return members[place.Owner(userID(u))] })
}

// servedQuality reads the sampled users' neighborhoods through
// GET /users/{id}/neighbors, checks every reported similarity against the
// exact SHF Jaccard, and scores the neighbor ids against the truth.
func servedQuality(g *generator, truth groundTruth, rep *report) (float64, error) {
	got := make([][]int32, len(truth.users))
	for i, u := range truth.users {
		status, body, err := g.send(http.MethodGet, "/users/"+userID(u)+"/neighbors", nil)
		rep.ops(1, 0)
		if err != nil || status != http.StatusOK {
			rep.ops(0, 1)
			return 0, fmt.Errorf("GET neighbors of %s: status %d %v %s", userID(u), status, err, bytes.TrimSpace(body))
		}
		var hits []hit
		if err := decodeHits(body, &hits); err != nil {
			return 0, fmt.Errorf("neighbors of %s: %w", userID(u), err)
		}
		nbs := make([]knn.Neighbor, len(hits))
		for j, h := range hits {
			nbs[j] = knn.Neighbor{ID: int32(h.slot), Sim: h.sim}
		}
		if !g.c.checkEdges(rep, "served graph", u, nbs) {
			rep.ops(0, 1)
		}
		got[i] = ids(nbs)
	}
	return truth.quality(func(i, _ int) []int32 { return got[i] }), nil
}
