package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"distlock"
	gen "distlock/internal/workload"
)

// admit-churn replays one seeded arrival/departure trace of churn-policy
// classes (half ordered two-phase, half arbitrarily shaped) through the
// service's control plane, with no session traffic: Register on each
// arrival, Deregister on each departure, against a fresh LockService per
// replay at the dladmit default cycle budget. The trace keeps churnLive
// classes live: each arrival past that departs the oldest class. With
// random departures instead (workload.ChurnTrace) the live set wanders,
// certification cost climbs steeply with it, and one seed's trace cost
// up to a hundred times another's. Most of a registration's cost is its
// Theorem 4 cycle checks; over 2000 arrivals their count still varied
// 18% (IQR) from seed to seed, over 8000 about 5%.
const (
	churnSites, churnPerSite = 8, 8
	churnPerTxn              = 3
	churnLive                = 10
	churnArrivals            = 8000
	churnCrossArc            = 0.3
	churnBudget              = 4096
)

type churnTrace struct {
	ddb    *distlock.DDB
	events []distlock.ChurnEvent
}

func newChurnTrace(seed int64) (*churnTrace, error) {
	cfg := distlock.WorkloadConfig{
		Sites: churnSites, EntitiesPerSite: churnPerSite, EntitiesPerTxn: churnPerTxn,
		Policy: distlock.PolicyChurn, CrossArcProb: churnCrossArc, Seed: seed,
	}
	ct := &churnTrace{ddb: gen.NewDDB(cfg)}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x636875726e))
	var live []*distlock.Transaction
	for a := 0; a < churnArrivals; a++ {
		if len(live) == churnLive {
			ct.events = append(ct.events, distlock.ChurnEvent{Txn: live[0]})
			live = live[1:]
		}
		t, err := gen.RandomTransaction(ct.ddb, fmt.Sprintf("C%d", a), cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("generate churn trace: %w", err)
		}
		live = append(live, t)
		ct.events = append(ct.events, distlock.ChurnEvent{Arrive: true, Txn: t})
	}
	return ct, nil
}

func (ct *churnTrace) admissionOptions() distlock.AdmissionOptions {
	return distlock.AdmissionOptions{CycleBudget: churnBudget, Multiplicity: 1}
}

func (ct *churnTrace) open() (*distlock.LockService, error) {
	return distlock.Open(ct.ddb, distlock.WithCycleBudget(churnBudget))
}

func churnParams() map[string]any {
	return map[string]any{
		"sites": churnSites, "entities_per_site": churnPerSite, "entities_per_txn": churnPerTxn,
		"arrivals": churnArrivals, "live_classes": churnLive, "cross_arc_probability": churnCrossArc,
		"policy": distlock.PolicyChurn.String(), "cycle_budget": churnBudget, "multiplicity": 1, "clients": 1,
	}
}

// churnRun is the outcome of replaying the trace for a measured interval.
type churnRun struct {
	measured   // an op is one Register decision
	calls      [numOpKinds]*hist
	spans      []span
	out        *outcomes
	replays    int
	mismatches int
	adm        distlock.AdmissionStats // summed over the measured replays
	pairEvals  int64
}

// reference replays the trace once, unmeasured, and returns its decision
// for every arrival. The certified set it ends with must pass a
// from-scratch SystemSafeDF.
func (ct *churnTrace) reference(ctx context.Context, r *report) ([]bool, error) {
	svc, err := ct.open()
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	var want []bool
	for _, ev := range ct.events {
		if !ev.Arrive {
			svc.Deregister(ev.Txn.Name())
			continue
		}
		res, err := svc.Register(ctx, ev.Txn)
		if err != nil {
			return nil, fmt.Errorf("reference register %s: %w", ev.Txn.Name(), err)
		}
		want = append(want, res.Admitted)
	}
	ok, _ := distlock.SystemSafeDF(svc.Snapshot())
	r.gate(ok, "the final certified set fails a from-scratch SystemSafeDF")
	return want, nil
}

// replay runs replays back to back for the measured interval, each on a
// fresh service, and checks every decision against want.
func (ct *churnTrace) replay(want []bool, warm time.Duration, seconds float64, traced bool) *churnRun {
	m := startMeter(warm, seconds)
	ctx, cancel := context.WithDeadline(context.Background(), m.end.Add(10*time.Second))
	defer cancel()
	run := &churnRun{out: &outcomes{}}
	var ring *spanRing
	if traced {
		for k := range run.calls {
			run.calls[k] = newHist()
		}
		ring = newSpanRing(spanRingSize)
	}
	wins := m.newWindows()
	var admSum distlock.AdmissionStats
	evals0 := distlock.PairEvalCount()
	measuring := false
	for replayID := uint64(0); time.Now().Before(m.end); replayID++ {
		if !measuring && !time.Now().Before(m.start) {
			measuring, evals0, admSum = true, distlock.PairEvalCount(), distlock.AdmissionStats{}
		}
		svc, err := ct.open()
		if err != nil {
			run.out.attempted[opRegister]++
			run.out.fail(opRegister, err)
			break
		}
		t0 := time.Now()
		i := 0
		for _, ev := range ct.events {
			start := time.Now()
			if !start.Before(m.end) {
				break
			}
			if !ev.Arrive {
				run.out.attempted[opDeregister]++
				if !svc.Deregister(ev.Txn.Name()) {
					run.out.fail(opDeregister, fmt.Errorf("class %s was not registered", ev.Txn.Name()))
				}
				if traced {
					end := time.Now()
					run.calls[opDeregister].record(int64(end.Sub(start)))
					ring.add(span{txn: replayID, kind: int8(opDeregister), start: start.Sub(m.start), end: end.Sub(m.start)})
				}
				continue
			}
			run.out.attempted[opRegister]++
			res, err := svc.Register(ctx, ev.Txn)
			end := time.Now()
			if err != nil {
				run.out.fail(opRegister, err)
				break
			}
			if res.Admitted != want[i] {
				run.mismatches++
			}
			i++
			if w := m.slot(end); w >= 0 {
				wins[w].record(int64(end.Sub(start)))
			}
			if traced {
				run.calls[opRegister].record(int64(end.Sub(start)))
				ring.add(span{txn: replayID, kind: int8(opRegister), start: start.Sub(m.start), end: end.Sub(m.start)})
			}
		}
		if traced {
			ring.add(span{txn: replayID, kind: spanTxn, start: t0.Sub(m.start), end: time.Since(m.start)})
		}
		if measuring {
			run.replays++
			addAdmission(&admSum, svc.Stats().Admission)
		}
		svc.Close()
	}
	run.pairEvals = distlock.PairEvalCount() - evals0
	run.adm = admSum
	if traced {
		run.spans = ring.items()
	}
	run.measured = m.finish(wins)
	return run
}

func addAdmission(sum *distlock.AdmissionStats, s distlock.AdmissionStats) {
	sum.Admitted += s.Admitted
	sum.Rejected += s.Rejected
	sum.Evicted += s.Evicted
	sum.PairChecks += s.PairChecks
	sum.CacheHits += s.CacheHits
	sum.CacheMisses += s.CacheMisses
	sum.CyclesChecked += s.CyclesChecked
	sum.BudgetExhausted += s.BudgetExhausted
}

func runChurn(ctx context.Context, o options, r *report) error {
	r.describe["params"] = churnParams()
	if o.trace {
		return churnTraced(ctx, o, r)
	}
	ct, setupS, setups, err := repeatSetup(func() (*churnTrace, error) {
		ct, err := newChurnTrace(o.seed)
		if err != nil {
			return nil, err
		}
		svc, err := ct.open()
		if err != nil {
			return nil, err
		}
		svc.Close()
		return ct, nil
	}, func(*churnTrace) {})
	if err != nil {
		return err
	}
	want, err := ct.reference(ctx, r)
	if err != nil {
		return err
	}
	run := ct.replay(want, warmFor(o.seconds), o.seconds, false)
	r.outcomes.add(run.out)
	r.gate(run.mismatches == 0, "%d Register decisions differ from the reference replay of the same trace", run.mismatches)
	setEndToEnd(r, run.measured, setupS)
	r.describe["samples"] = map[string]any{"op": run.lat.n, "setup": setups, "replays": run.replays, "windows": run.windows}
	r.describe["whole_run"] = run.wholeRun()
	return nil
}
