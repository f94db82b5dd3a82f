package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"distlock"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
)

// The session workloads run the E12 mix shape: 4 sites x 16 entities, 8
// ordered two-phase classes of 3 exclusive locks each, so every class is
// certified and runs on the tier with no deadlock handling. Two client
// goroutines (one per CPU of the reference host) each own half of the
// classes, so a class never has two live sessions and multiplicity 1
// certifies the mix.
const (
	sites, perSite = 4, 16
	numClasses     = 8
	perTxn         = 3
	zipfS          = 1.2
	sessionClients = 2
	pipelineDepth  = 8
)

type sessionSpec struct {
	policy   distlock.WorkloadPolicy
	shape    mixShape
	remote   bool
	pipeline int
}

// mixShape is a mix's conflict structure: how many class pairs share an
// entity (edges of the interaction graph), how many of those pairs belong
// to different clients (cross), how many entities those cross pairs share
// in all, how many cross pairs share the most shared entity (hot), and
// how many simple cycles the interaction graph has. Contention between
// the two clients follows cross, crossEnts and hot; certification work
// follows edges (pair checks) and cycles (Theorem 4 cycle checks). A
// seed's mix is drawn until it has its workload's shape, so every seed
// measures the same amount of contention and certification work; an
// unconditioned seed can leave the clients' classes disjoint, or cost
// 100x another seed's certification.
type mixShape struct{ edges, cross, crossEnts, hot, cycles int }

var (
	// local-uniform: in-process sharded table; wire and admission idle.
	// 3/2/2/1/0 is the most common shape of the uniform mix.
	localUniform = sessionSpec{policy: distlock.PolicyOrdered, shape: mixShape{3, 2, 2, 1, 0}}
	// remote-zipf: one loopback netlock server, synchronous round trips,
	// hot entities queueing in the server's chains. 17/10/12 is the most
	// common start of a Zipf mix's shape, and within it hot 9 (the
	// hottest entity is in 3 of each client's 4 classes) and 262 cycles
	// are the most common rest.
	remoteZipf = sessionSpec{policy: distlock.PolicyZipf, shape: mixShape{17, 10, 12, 9, 262}, remote: true}
	// remote-pipelined: the same server, uniform mix, async submits with
	// fire-and-forget releases and no flush window.
	remotePipelined = sessionSpec{policy: distlock.PolicyOrdered, shape: mixShape{3, 2, 2, 1, 0}, remote: true, pipeline: pipelineDepth}
)

// maxMixDraws bounds the search for a mix of the workload's shape; the
// rarest target shape turns up about once in 600 draws.
const maxMixDraws = 20000

func (sp sessionSpec) generate(genSeed int64) (*distlock.System, error) {
	return distlock.GenerateWorkload(distlock.WorkloadConfig{
		Sites: sites, EntitiesPerSite: perSite, NumTxns: numClasses,
		EntitiesPerTxn: perTxn, Policy: sp.policy, ZipfS: zipfS, Seed: genSeed,
	})
}

// pickMix returns the generator seed of the first mix, in a sequence
// drawn from seed, that has the workload's shape.
func (sp sessionSpec) pickMix(seed int64) (int64, int, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6d6978))
	for draw := 1; draw <= maxMixDraws; draw++ {
		genSeed := int64(rng.Uint64() >> 1)
		sys, err := sp.generate(genSeed)
		if err != nil {
			return 0, 0, fmt.Errorf("generate mix: %w", err)
		}
		if shapeOf(sys) == sp.shape {
			return genSeed, draw, nil
		}
	}
	return 0, 0, fmt.Errorf("no mix of shape %+v in %d draws from seed %d", sp.shape, maxMixDraws, seed)
}

// shapeOf measures a mix's shape; class k belongs to client k mod
// sessionClients.
func shapeOf(sys *distlock.System) mixShape {
	ents := make([]map[distlock.EntityID]bool, len(sys.Txns))
	for i, t := range sys.Txns {
		ents[i] = map[distlock.EntityID]bool{}
		for _, nid := range t.Order() {
			ents[i][t.Node(nid).Entity] = true
		}
	}
	var sh mixShape
	perClient := map[distlock.EntityID]*[sessionClients]int{}
	for i, es := range ents {
		for e := range es {
			if perClient[e] == nil {
				perClient[e] = new([sessionClients]int)
			}
			perClient[e][i%sessionClients]++
		}
	}
	for _, n := range perClient {
		sh.hot = max(sh.hot, n[0]*n[1])
	}
	adj := make([][]bool, len(ents))
	for a := range ents {
		adj[a] = make([]bool, len(ents))
	}
	for a := range ents {
		for b := a + 1; b < len(ents); b++ {
			shared := 0
			for e := range ents[a] {
				if ents[b][e] {
					shared++
				}
			}
			if shared == 0 {
				continue
			}
			adj[a][b], adj[b][a] = true, true
			sh.edges++
			if a%sessionClients != b%sessionClients {
				sh.cross++
				sh.crossEnts += shared
			}
		}
	}
	sh.cycles = countCycles(adj)
	return sh
}

// countCycles counts the simple cycles of length 3 or more of an
// undirected graph: each is walked from its lowest vertex, once in each
// direction.
func countCycles(adj [][]bool) int {
	n, count := len(adj), 0
	onPath := make([]bool, n)
	var walk func(start, v, depth int)
	walk = func(start, v, depth int) {
		for w := start; w < n; w++ {
			switch {
			case !adj[v][w]:
			case w == start:
				if depth >= 3 {
					count++
				}
			case !onPath[w]:
				onPath[w] = true
				walk(start, w, depth+1)
				onPath[w] = false
			}
		}
	}
	for s := range adj {
		onPath[s] = true
		walk(s, s, 1)
		onPath[s] = false
	}
	return count / 2
}

func (sp sessionSpec) params() map[string]any {
	p := map[string]any{
		"mix_shape": map[string]int{"edges": sp.shape.edges, "cross": sp.shape.cross, "cross_entities": sp.shape.crossEnts, "hot": sp.shape.hot, "cycles": sp.shape.cycles},
		"sites":     sites, "entities_per_site": perSite, "classes": numClasses,
		"entities_per_txn": perTxn, "policy": sp.policy.String(), "clients": sessionClients,
		"backend": "sharded (in-process)", "multiplicity": 1,
	}
	if sp.policy == distlock.PolicyZipf {
		p["zipf_s"] = zipfS
	}
	if sp.remote {
		p["backend"] = "netlock over loopback, one in-process server"
		p["pipeline_depth"] = sp.pipeline
	}
	return p
}

// step is one operation of a class program, resolved once at set-up.
type step struct {
	lock bool
	ent  string
	id   int
	mode distlock.Mode
}

// env is one set-up service: the generated mix, the server (remote
// workloads) and the service with every class registered.
type env struct {
	sys       *distlock.System
	srv       *netlock.Server
	svc       *distlock.LockService
	classes   []string
	progs     [][]step
	pairEvals int64 // core PairSafeDF evaluations spent by RegisterBatch
}

func (e *env) close() {
	if e.svc != nil {
		e.svc.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// setup is all the cold work a user pays before the first transaction:
// generate the mix, start the server, open the service (which dials the
// server) and certify the mix with one RegisterBatch.
func setup(ctx context.Context, sp sessionSpec, genSeed int64, traced bool) (*env, error) {
	sys, err := sp.generate(genSeed)
	if err != nil {
		return nil, fmt.Errorf("generate mix: %w", err)
	}
	e := &env{sys: sys}
	var opts []distlock.ServiceOption
	if sp.remote {
		if e.srv, err = netlock.NewServer(sys.DDB, locktable.Config{}, netlock.ServerOptions{}); err != nil {
			return nil, fmt.Errorf("start server: %w", err)
		}
		if err := e.srv.Listen("127.0.0.1:0"); err != nil {
			e.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		opts = append(opts, distlock.WithRemoteTable(e.srv.Addr()), distlock.WithPipelineDepth(sp.pipeline))
	}
	if traced {
		opts = append(opts, distlock.WithLatencyMetrics(), distlock.WithTraceSampling(0))
	}
	if e.svc, err = distlock.Open(sys.DDB, opts...); err != nil {
		e.close()
		return nil, fmt.Errorf("open service: %w", err)
	}
	before := distlock.PairEvalCount()
	rs, err := e.svc.RegisterBatch(ctx, sys.Txns)
	e.pairEvals = distlock.PairEvalCount() - before
	if err != nil {
		e.close()
		return nil, fmt.Errorf("register mix: %w", err)
	}
	for i, r := range rs {
		if !r.Admitted {
			e.close()
			return nil, fmt.Errorf("ordered class %s not certified: %s", r.Class, r.Reason)
		}
		t := sys.Txns[i]
		var prog []step
		for _, nid := range t.Order() {
			nd := t.Node(nid)
			prog = append(prog, step{
				lock: nd.Kind == distlock.LockOp, ent: sys.DDB.EntityName(nd.Entity),
				id: int(nd.Entity), mode: nd.Mode,
			})
		}
		e.classes = append(e.classes, t.Name())
		e.progs = append(e.progs, prog)
	}
	return e, nil
}

// setEndToEnd records the end-to-end metrics of a measured pass.
func setEndToEnd(r *report, m measured, setupS float64) {
	r.set("ops_per_s", "1/s", m.rate)
	r.set("op_p50_us", "us", m.p50)
	r.set("op_p95_us", "us", m.p95)
	r.set("cpu_us_per_op", "us", m.cpuPerOp)
	r.set("setup_s", "s", setupS)
}

func sessionWorkload(sp sessionSpec) func(context.Context, options, *report) error {
	return func(ctx context.Context, o options, r *report) error {
		r.describe["params"] = sp.params()
		genSeed, draws, err := sp.pickMix(o.seed)
		if err != nil {
			return err
		}
		r.describe["mix"] = map[string]any{"generator_seed": genSeed, "draws": draws}
		if o.trace {
			return sessionTraced(ctx, sp, genSeed, o, r)
		}
		e, setupS, setups, err := repeatSetup(func() (*env, error) { return setup(ctx, sp, genSeed, false) }, (*env).close)
		if err != nil {
			return err
		}
		defer e.close()
		p := e.drive(sp, o.seed, warmFor(o.seconds), o.seconds, false)
		e.quiesce(ctx, p, r)
		r.outcomes.add(p.out)
		setEndToEnd(r, p.measured, setupS)
		r.describe["samples"] = map[string]any{"op": p.lat.n, "setup": setups, "windows": p.windows}
		r.describe["whole_run"] = p.wholeRun()
		return nil
	}
}

// phase is the outcome of driving one env for a measured interval.
type phase struct {
	measured   // an op is one committed transaction, Begin to Commit
	calls      [numOpKinds]*hist
	spans      []span
	out        *outcomes
	violations int64 // a Lock granted while another client held the entity
	stats      distlock.ServiceStats
}

type sessionClient struct {
	id        int
	e         *env
	m         *meter
	pipelined bool
	traced    bool
	owners    []atomic.Int32
	rng       *rand.Rand
	classes   []int
	wins      []*hist
	calls     [numOpKinds]*hist
	spans     *spanRing
	out       outcomes
	violated  int64
}

// txn runs one transaction of a random owned class and returns when it
// ended.
func (c *sessionClient) txn(ctx context.Context, txnID uint64) time.Time {
	k := c.classes[c.rng.IntN(len(c.classes))]
	prog := c.e.progs[k]
	t0 := time.Now()
	last := t0
	// mark closes one call: on a traced run it times the call and keeps
	// its span.
	mark := func(kind opKind) {
		if !c.traced {
			return
		}
		now := time.Now()
		c.calls[kind].record(int64(now.Sub(last)))
		c.spans.add(span{txn: txnID, kind: int8(kind), start: last.Sub(c.m.start), end: now.Sub(c.m.start)})
		last = now
	}
	c.out.attempted[opBegin]++
	sess, err := c.e.svc.Begin(ctx, c.e.classes[k])
	if err != nil {
		c.out.fail(opBegin, err)
		return time.Now()
	}
	mark(opBegin)
	for _, st := range prog {
		if st.lock {
			c.out.attempted[opLock]++
			if err := sess.Lock(ctx, st.ent, st.mode); err != nil {
				c.out.fail(opLock, err)
				return c.abort(sess, prog)
			}
			mark(opLock)
			if !c.pipelined && !c.owners[st.id].CompareAndSwap(0, int32(c.id+1)) {
				c.violated++
			}
			continue
		}
		c.out.attempted[opUnlock]++
		if !c.pipelined {
			c.owners[st.id].CompareAndSwap(int32(c.id+1), 0)
		}
		if err := sess.Unlock(st.ent); err != nil {
			c.out.fail(opUnlock, err)
			return c.abort(sess, prog)
		}
		mark(opUnlock)
	}
	c.out.attempted[opCommit]++
	if err := sess.Commit(); err != nil {
		c.out.fail(opCommit, err)
		return c.abort(sess, prog)
	}
	mark(opCommit)
	end := time.Now()
	if c.traced {
		c.spans.add(span{txn: txnID, kind: spanTxn, start: t0.Sub(c.m.start), end: end.Sub(c.m.start)})
	}
	if w := c.m.slot(end); w >= 0 {
		c.wins[w].record(int64(end.Sub(t0)))
	}
	return end
}

func (c *sessionClient) abort(sess *distlock.Session, prog []step) time.Time {
	if !c.pipelined {
		for _, st := range prog {
			c.owners[st.id].CompareAndSwap(int32(c.id+1), 0)
		}
	}
	sess.Abort()
	return time.Now()
}

// drive runs the closed loop: each client starts its next transaction
// only when the previous one has ended. The first warm seconds are not
// measured (caches fill, stripes split); then the loop is measured for
// the given seconds. A call still blocked well after the measured
// interval fails on its context deadline, so a stall is counted instead
// of hanging the run.
func (e *env) drive(sp sessionSpec, seed int64, warm time.Duration, seconds float64, traced bool) *phase {
	m := startMeter(warm, seconds)
	ctx, cancel := context.WithDeadline(context.Background(), m.end.Add(10*time.Second))
	defer cancel()

	owners := make([]atomic.Int32, e.sys.DDB.NumEntities())
	cs := make([]*sessionClient, sessionClients)
	var wg sync.WaitGroup
	for i := range cs {
		c := &sessionClient{
			id: i, e: e, m: m, pipelined: sp.pipeline > 0, traced: traced, owners: owners,
			rng: rand.New(rand.NewPCG(uint64(seed), uint64(i))), wins: m.newWindows(),
		}
		for k := i; k < len(e.classes); k += sessionClients {
			c.classes = append(c.classes, k)
		}
		if traced {
			for k := range c.calls {
				c.calls[k] = newHist()
			}
			c.spans = newSpanRing(spanRingSize)
		}
		cs[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			txnID := uint64(i) << 48
			for now := time.Now(); now.Before(m.end); txnID++ {
				now = c.txn(ctx, txnID)
			}
		}()
	}
	wg.Wait()

	p := &phase{out: &outcomes{}}
	wins := m.newWindows()
	for _, c := range cs {
		for w, h := range c.wins {
			wins[w].merge(h)
		}
		p.out.add(&c.out)
		p.violations += c.violated
		if traced {
			for k := range p.calls {
				if p.calls[k] == nil {
					p.calls[k] = newHist()
				}
				p.calls[k].merge(c.calls[k])
			}
			p.spans = append(p.spans, c.spans.items()...)
		}
	}
	p.measured = m.finish(wins)
	return p
}

// quiesce checks the service's books once the clients have stopped, and
// records the final counters in p.stats.
func (e *env) quiesce(ctx context.Context, p *phase, r *report) {
	r.gate(p.violations == 0, "%d Lock grants overlapped another client's exclusive hold", p.violations)
	if e.srv != nil {
		probe(ctx, e, r)
	}
	st := e.svc.Stats()
	p.stats = st
	r.gate(st.Certified.Aborts == 0 && st.Certified.Wounds == 0 && st.Certified.Table.Wounds == 0,
		"certified tier aborted %d and wounded %d sessions; it runs with no deadlock handling",
		st.Certified.Aborts, st.Certified.Wounds+st.Certified.Table.Wounds)
	closed := st.Certified.Commits + st.Certified.Aborts + st.Fallback.Commits + st.Fallback.Aborts
	r.gate(st.Begun == closed, "conservation: begun %d != commits+aborts %d", st.Begun, closed)
	r.gate(st.Certified.Table.Held == 0, "certified table still holds %d locks at quiescence", st.Certified.Table.Held)
	r.gate(st.Certified.Commits > 0, "no transaction committed")
}

// probe checks the server side at quiescence: a benchmark-owned client
// locks and unlocks every entity (each grant queues behind any release
// still in flight), after which the server's table must hold nothing and
// the client must have no request in flight.
func probe(ctx context.Context, e *env, r *report) {
	c, err := netlock.Dial(e.srv.Addr(), e.sys.DDB, locktable.Config{}, netlock.DialOptions{})
	if err != nil {
		r.gate(false, "probe dial: %v", err)
		return
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	in := locktable.Instance{Key: locktable.InstKey{ID: 1}, Prio: 1}
	for id := 0; id < e.sys.DDB.NumEntities(); id++ {
		ent := model.EntityID(id)
		if err := c.Acquire(ctx, in, ent, locktable.Exclusive); err != nil {
			r.gate(false, "probe lock of entity %d at quiescence: %v", id, err)
			return
		}
		if err := c.Release(ent, in.Key); err != nil {
			r.gate(false, "probe unlock of entity %d: %v", id, err)
			return
		}
	}
	held := e.srv.TableMetrics().Snapshot().Held
	for deadline := time.Now().Add(2 * time.Second); held != 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		held = e.srv.TableMetrics().Snapshot().Held
	}
	r.gate(held == 0, "server table holds %d locks at quiescence", held)
	inflight := c.Metrics().Snapshot().InFlight
	r.gate(inflight == 0, "wire client has %d requests in flight at quiescence", inflight)
}
