package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"distlock"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
)

// The direct phases of a traced run drive one layer each, below the
// service facade, so a layer's cost can be read without the layers above.

// tablePairs is how many Acquire+Release pairs one timed batch holds.
const tablePairs = 20000

// locktablePhase times uncontended exclusive Acquire+Release pairs on a
// fresh sharded table over ddb, first from one goroutine and then from
// two, each on its own entity. Both figures are nanoseconds per pair as
// one goroutine sees it, the median over batches.
func locktablePhase(ddb *model.DDB, d time.Duration) (single, parallel float64, err error) {
	tab := locktable.NewSharded(ddb, locktable.Config{})
	defer tab.Close()
	n := ddb.NumEntities()
	batches := func(g int, until time.Time) ([]float64, error) {
		ctx := context.Background()
		in := locktable.Instance{Key: locktable.InstKey{ID: g + 1}, Prio: int64(g + 1)}
		var out []float64
		for len(out) < 3 || time.Now().Before(until) {
			t0 := time.Now()
			for k := 0; k < tablePairs; k++ {
				ent := model.EntityID((g + 2*k) % n)
				if err := tab.Acquire(ctx, in, ent, locktable.Exclusive); err != nil {
					return nil, err
				}
				if err := tab.Release(ent, in.Key); err != nil {
					return nil, err
				}
			}
			out = append(out, float64(time.Since(t0).Nanoseconds())/tablePairs)
		}
		return out, nil
	}
	one, err := batches(0, time.Now().Add(d/2))
	if err != nil {
		return 0, 0, fmt.Errorf("locktable: %w", err)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		all  []float64
		errs []error
	)
	until := time.Now().Add(d / 2)
	for g := 0; g < sessionClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := batches(g, until)
			mu.Lock()
			defer mu.Unlock()
			all = append(all, b...)
			if err != nil {
				errs = append(errs, err)
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return 0, 0, fmt.Errorf("locktable: %v", errs)
	}
	return median(one), median(all), nil
}

// netlockPhase times synchronous round trips of a benchmark-owned wire
// client against the server at addr: each exclusive Acquire and each
// Release is one round trip. At quiescence the client must have no
// request in flight.
func netlockPhase(ctx context.Context, addr string, ddb *model.DDB, d time.Duration, r *report) *hist {
	h := newHist()
	c, err := netlock.Dial(addr, ddb, locktable.Config{}, netlock.DialOptions{})
	if err != nil {
		r.gate(false, "netlock dial: %v", err)
		return h
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(ctx, d+10*time.Second)
	defer cancel()
	in := locktable.Instance{Key: locktable.InstKey{ID: 1}, Prio: 1}
	n := ddb.NumEntities()
	for i, until := 0, time.Now().Add(d); time.Now().Before(until); i++ {
		ent := model.EntityID(i % n)
		t0 := time.Now()
		if err := c.Acquire(ctx, in, ent, locktable.Exclusive); err != nil {
			r.gate(false, "netlock acquire: %v", err)
			return h
		}
		t1 := time.Now()
		if err := c.Release(ent, in.Key); err != nil {
			r.gate(false, "netlock release: %v", err)
			return h
		}
		h.record(int64(t1.Sub(t0)))
		h.record(int64(time.Since(t1)))
	}
	inflight := c.Metrics().Snapshot().InFlight
	r.gate(inflight == 0, "netlock client has %d requests in flight at quiescence", inflight)
	return h
}

// admissionPhase replays the churn trace straight into fresh admission
// services (AdmitBatch of one class per arrival, Evict per departure)
// for d, timing each admission. Every replay must reach the same
// decisions as want.
func admissionPhase(ctx context.Context, ct *churnTrace, want []bool, d time.Duration, r *report) *hist {
	h := newHist()
	for until := time.Now().Add(d); time.Now().Before(until); {
		adm := distlock.NewAdmission(ct.ddb, ct.admissionOptions())
		i := 0
		for _, ev := range ct.events {
			if !ev.Arrive {
				adm.Evict(ev.Txn.Name())
				continue
			}
			t0 := time.Now()
			rs, err := adm.AdmitBatch(ctx, []*distlock.Transaction{ev.Txn})
			h.record(int64(time.Since(t0)))
			if err != nil {
				r.gate(false, "admission of %s: %v", ev.Txn.Name(), err)
				return h
			}
			if rs[0].Admitted != want[i] {
				r.gate(false, "direct admission of %s decided %v, the service decided %v", ev.Txn.Name(), rs[0].Admitted, want[i])
				return h
			}
			i++
		}
	}
	return h
}
