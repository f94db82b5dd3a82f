package main

import (
	"context"
	"time"

	"distlock"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
	"distlock/internal/obs"
)

// A traced run splits --seconds: an untraced pass of the workload, a
// traced pass (its ratio to the untraced one is the tracing overhead),
// then one direct phase per layer.
const (
	passShare   = 0.3
	directShare = 0.4 / 3
)

// perLayerUnits names every per-layer metric with its unit. A workload
// prints 0 for a layer it bypasses, so every traced run prints them all.
var perLayerUnits = map[string]string{
	"locktable.pair_ns": "ns", "locktable.pair_parallel_ns": "ns",
	"locktable.grants_per_txn": "count", "locktable.waits_per_txn": "count", "locktable.stripe_splits": "count",
	"runtime.begin_p50_us": "us", "runtime.lock_p50_us": "us", "runtime.lock_p99_us": "us",
	"runtime.unlock_p50_us": "us", "runtime.commit_p50_us": "us",
	"runtime.lock_wait_p50_us": "us", "runtime.lock_wait_p99_us": "us", "runtime.pipelined_ratio": "ratio",
	"netlock.rtt_p50_us": "us", "netlock.rtt_p99_us": "us",
	"netlock.frames_per_txn": "count", "netlock.flushes_per_txn": "count", "netlock.bytes_per_txn": "bytes",
	"netlock.batch_width_p50": "count",
	"admission.admit_p50_us":  "us", "admission.admit_p99_us": "us", "admission.deregister_p50_us": "us",
	"admission.pair_checks_per_register": "count", "admission.cache_hit_ratio": "ratio",
	"admission.cycles_checked_per_register": "count", "admission.budget_exhausted": "count",
	"core.pair_evals_per_register": "count",
	"process.alloc_bytes_per_op":   "bytes", "process.gc_per_s": "1/s",
	"trace.overhead_ratio": "ratio", "trace.call_p50_sum_ratio": "ratio",
}

// The service's trace stages: the whole op ("total"), then each stage.
func init() {
	perLayerUnits["netlock.stage_total_p50_us"] = "us"
	for s := 0; s < obs.NumStages; s++ {
		perLayerUnits["netlock.stage_"+obs.Stage(s).String()+"_p50_us"] = "us"
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sessionTraced(ctx context.Context, sp sessionSpec, genSeed int64, o options, r *report) error {
	pass := o.seconds * passShare
	e1, err := setup(ctx, sp, genSeed, false)
	if err != nil {
		return err
	}
	p1 := e1.drive(sp, o.seed, warmFor(pass), pass, false)
	// The server's counters are read before the quiescence probe adds
	// its own traffic.
	var wire obs.WireCounters
	var srvTable obs.TableCounters
	if e1.srv != nil {
		wire, srvTable = e1.srv.Metrics().Snapshot(), e1.srv.TableMetrics().Snapshot()
	}
	e1.quiesce(ctx, p1, r)
	adm := e1.svc.Stats().Admission
	pairEvals := e1.pairEvals
	e1.close()
	r.outcomes.add(p1.out)

	e2, err := setup(ctx, sp, genSeed, true)
	if err != nil {
		return err
	}
	p2 := e2.drive(sp, o.seed, warmFor(pass), pass, true)
	e2.quiesce(ctx, p2, r)
	r.outcomes.add(p2.out)
	rtt := directNetlock(ctx, e2.srv, e2.sys.DDB, seconds(o.seconds*directShare), r)
	e2.close()

	st1, st2 := p1.stats.Certified, p2.stats.Certified
	commits := float64(st1.Commits)
	table := st1.Table
	if sp.remote {
		table = srvTable // the server's table is the one that queues
	}
	r.set("locktable.grants_per_txn", "count", ratio(float64(st1.Table.Grants), commits))
	r.set("locktable.waits_per_txn", "count", ratio(float64(table.QueueDepth.Count), commits))
	r.set("locktable.stripe_splits", "count", float64(table.StripeSplits))
	// The timed calls of one transaction should add up to its latency:
	// each call's p50 weighted by how often a transaction makes it.
	var sum float64
	for kind := opBegin; kind <= opCommit; kind++ {
		p50 := p2.calls[kind].usAt(0.50)
		r.set("runtime."+opNames[kind]+"_p50_us", "us", p50)
		sum += p50 * ratio(float64(p2.calls[kind].n), float64(p2.calls[opCommit].n))
	}
	r.set("trace.call_p50_sum_ratio", "ratio", ratio(sum, p2.lat.usAt(0.50)))
	r.set("runtime.lock_p99_us", "us", p2.calls[opLock].usAt(0.99))
	r.set("runtime.lock_wait_p50_us", "us", float64(st2.LockWait.P50)/1e3)
	r.set("runtime.lock_wait_p99_us", "us", float64(st2.LockWait.P99)/1e3)
	r.set("runtime.pipelined_ratio", "ratio", ratio(float64(st1.PipelinedOps), float64(st1.PipelinedOps+st1.SyncOps)))
	r.set("netlock.frames_per_txn", "count", ratio(float64(wire.Frames), commits))
	r.set("netlock.flushes_per_txn", "count", ratio(float64(wire.Flushes), commits))
	r.set("netlock.bytes_per_txn", "bytes", ratio(float64(wire.Bytes), commits))
	r.set("netlock.batch_width_p50", "count", float64(wire.BatchWidth.P50))
	for _, s := range st2.TraceStages {
		r.set("netlock.stage_"+s.Stage+"_p50_us", "us", float64(s.P50)/1e3)
	}
	regs := float64(adm.Admitted + adm.Rejected)
	setAdmission(r, adm, pairEvals, regs)
	r.set("process.alloc_bytes_per_op", "bytes", p1.allocPerOp)
	r.set("process.gc_per_s", "1/s", p1.gcPerS)
	r.set("trace.overhead_ratio", "ratio", ratio(p2.rate, p1.rate))

	ct, want, err := churnReference(ctx, o.seed, r)
	if err != nil {
		return err
	}
	samples := directPhases(ctx, o, r, e2.sys.DDB, ct, want)
	samples["untraced_op"], samples["traced_op"], samples["rtt"] = p1.lat.n, p2.lat.n, rtt.n
	for kind := opBegin; kind <= opCommit; kind++ {
		samples[opNames[kind]] = p2.calls[kind].n
	}
	samples["lock_wait"], samples["spans"] = st2.LockWait.Count, len(p2.spans)
	r.describe["samples"] = samples
	return finishTrace(o, r, p2.spans)
}

// directNetlock runs the wire phase against the workload's server, or
// against a server started for it when the workload has none (srv nil).
func directNetlock(ctx context.Context, srv *netlock.Server, ddb *model.DDB, d time.Duration, r *report) *hist {
	if srv == nil {
		var err error
		if srv, err = netlock.NewServer(ddb, locktable.Config{}, netlock.ServerOptions{}); err != nil {
			r.gate(false, "start server: %v", err)
			return newHist()
		}
		defer srv.Close()
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			r.gate(false, "listen: %v", err)
			return newHist()
		}
	}
	h := netlockPhase(ctx, srv.Addr(), ddb, d, r)
	r.set("netlock.rtt_p50_us", "us", h.usAt(0.50))
	r.set("netlock.rtt_p99_us", "us", h.usAt(0.99))
	return h
}

// directPhases runs the lock-table and admission phases and returns
// their sample counts.
func directPhases(ctx context.Context, o options, r *report, ddb *model.DDB, ct *churnTrace, want []bool) map[string]any {
	d := seconds(o.seconds * directShare)
	single, parallel, err := locktablePhase(ddb, d)
	r.gate(err == nil, "%v", err)
	r.set("locktable.pair_ns", "ns", single)
	r.set("locktable.pair_parallel_ns", "ns", parallel)
	h := admissionPhase(ctx, ct, want, d, r)
	r.set("admission.admit_p50_us", "us", h.usAt(0.50))
	r.set("admission.admit_p99_us", "us", h.usAt(0.99))
	return map[string]any{"admit": h.n}
}

func churnReference(ctx context.Context, seed int64, r *report) (*churnTrace, []bool, error) {
	ct, err := newChurnTrace(seed)
	if err != nil {
		return nil, nil, err
	}
	want, err := ct.reference(ctx, r)
	return ct, want, err
}

func setAdmission(r *report, adm distlock.AdmissionStats, pairEvals int64, regs float64) {
	r.set("admission.pair_checks_per_register", "count", ratio(float64(adm.PairChecks), regs))
	r.set("admission.cache_hit_ratio", "ratio", ratio(float64(adm.CacheHits), float64(adm.CacheHits+adm.CacheMisses)))
	r.set("admission.cycles_checked_per_register", "count", ratio(float64(adm.CyclesChecked), regs))
	r.set("admission.budget_exhausted", "count", float64(adm.BudgetExhausted))
	r.set("core.pair_evals_per_register", "count", ratio(float64(pairEvals), regs))
}

func churnTraced(ctx context.Context, o options, r *report) error {
	ct, want, err := churnReference(ctx, o.seed, r)
	if err != nil {
		return err
	}
	pass := o.seconds * passShare
	run1 := ct.replay(want, warmFor(pass), pass, false)
	run2 := ct.replay(want, warmFor(pass), pass, true)
	for _, run := range []*churnRun{run1, run2} {
		r.outcomes.add(run.out)
		r.gate(run.mismatches == 0, "%d Register decisions differ from the reference replay of the same trace", run.mismatches)
	}
	setAdmission(r, run1.adm, run1.pairEvals, float64(run1.adm.Admitted+run1.adm.Rejected))
	r.set("admission.deregister_p50_us", "us", run2.calls[opDeregister].usAt(0.50))
	r.set("process.alloc_bytes_per_op", "bytes", run1.allocPerOp)
	r.set("process.gc_per_s", "1/s", run1.gcPerS)
	r.set("trace.overhead_ratio", "ratio", ratio(run2.rate, run1.rate))
	r.set("trace.call_p50_sum_ratio", "ratio", ratio(run2.calls[opRegister].usAt(0.50), run2.lat.usAt(0.50)))

	rtt := directNetlock(ctx, nil, ct.ddb, seconds(o.seconds*directShare), r)
	samples := directPhases(ctx, o, r, ct.ddb, ct, want)
	samples["untraced_op"], samples["traced_op"] = run1.lat.n, run2.lat.n
	samples["register"], samples["deregister"] = run2.calls[opRegister].n, run2.calls[opDeregister].n
	samples["replays"], samples["spans"], samples["rtt"] = run1.replays, len(run2.spans), rtt.n
	r.describe["samples"] = samples
	return finishTrace(o, r, run2.spans)
}

// finishTrace writes the spans out and gives every per-layer metric the
// workload did not exercise the value 0.
func finishTrace(o options, r *report, spans []span) error {
	path, err := writeSpans(o, spans)
	if err != nil {
		return err
	}
	r.describe["spans_file"] = path
	for name, unit := range perLayerUnits {
		if _, ok := r.metrics[name]; !ok {
			r.set(name, unit, 0)
		}
	}
	return nil
}
