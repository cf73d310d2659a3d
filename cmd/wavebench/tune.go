package main

// tune-hot and tune-cold: open-loop /v1/tune and /v1/tune/batch traffic
// against a freshly booted daemon, then a closed-loop /v1/tune window
// for throughput.

import (
	"context"
	"fmt"
	"time"
)

// openShare is the part of a daemon workload's window run open loop; the
// rest is the closed-loop window.
const openShare = 0.7

// sloLimit is the latency within which a tune counts as served on time.
const sloLimit = 2 * time.Millisecond

// tuneMix is the open-loop request mix of the tune workloads.
var tuneMix = opMix{opTune: 1 - batchShare, opBatch: batchShare}

// runTune runs tune-hot (cold = false) or tune-cold.
func runTune(ctx context.Context, e *env, cold bool, res *result) error {
	hot, err := hotKeys()
	if err != nil {
		return err
	}
	d, setup, err := bootDaemons(ctx, e, res.Workload, nil, setupKeys(hot), res)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	res.set("setup_s", setup, "s", fmt.Sprintf("median of %d boots", e.setupReps))
	if err := driveTune(ctx, e, d.base, d.cmd.Process.Pid, cold, res); err != nil {
		return err
	}
	err = d.stop()
	d = nil
	if err != nil {
		res.problem("%v", err)
	}
	return nil
}

// driveTune sends a tune workload's traffic to the daemon at base, whose
// process is pid (0: memory is not sampled), and records everything but
// set-up.
func driveTune(ctx context.Context, e *env, base string, pid int, cold bool, res *result) error {
	hot, err := hotKeys()
	if err != nil {
		return err
	}
	universe := coldKeys{}
	src := func(salt uint64) keySource { return newUniformKeys(hot, e.seed, salt) }
	rate, warm := hotRate, 500*time.Millisecond
	if cold {
		src = func(salt uint64) keySource { return newZipfKeys(universe, e.seed, salt) }
		// Long enough for misses to fill the cache, so the window sees
		// the daemon's steady state.
		rate, warm = coldRate, 3*time.Second
	}
	rate *= e.rateScale
	openWin := time.Duration(openShare * float64(e.window))
	closedWin := e.window - openWin

	warmOps, err := schedule(e.seed, 10, rate, warm, 0, tuneMix, src(10))
	if err != nil {
		return err
	}
	winOps, err := schedule(e.seed, 11, rate, openWin, 0, tuneMix, src(11))
	if err != nil {
		return err
	}
	// Enough closed-loop ops for well over any rate this host reaches;
	// the list wraps if a faster host outruns it.
	closed, err := schedule(e.seed, 12, 0, 0, int(20000*closedWin.Seconds())+1000, opMix{opTune: 1}, src(12))
	if err != nil {
		return err
	}
	eval, err := evalKeys(e.effKeys, func(i int) (*tuneKey, error) { return hot[i], nil }, len(hot))
	if cold {
		eval, err = evalKeys(e.effKeys, universe.key, coldUniverse)
	}
	if err != nil {
		return err
	}

	client := newClient()
	defer client.CloseIdleConnections()
	replies := newReplyLog()
	send := func(ops []op) sendFunc {
		return func(ctx context.Context, c *conn, i int) error {
			o := ops[i%len(ops)]
			path, want := opPath(o.kind)
			b, err := c.post(ctx, base+path, o.body, want)
			if err != nil {
				return err
			}
			if o.kind == opBatch {
				replies.addBatch(o.keys, b)
			} else {
				replies.addTune(o.keys[0], b)
			}
			return nil
		}
	}
	loop := func(ops []op) loopResult {
		r := openLoop(ctx, client, dueTimes(ops), send(ops))
		res.ops(len(r.OK), r.failed())
		return r
	}

	// Untimed warm-up: tune-hot first makes every key resident.
	if !cold {
		all := make([]op, len(hot))
		for i, k := range hot {
			all[i] = op{kind: opTune, keys: []*tuneKey{k}, body: k.body}
		}
		loop(all)
	}
	loop(warmOps)

	var rss *rssSampler
	if pid > 0 {
		rss = sampleRSS(pid)
		defer rss.halt()
	}
	open := loop(winOps)
	if rss != nil {
		if err := rss.stop(res, "waved"); err != nil {
			return err
		}
	}
	isTune := func(i int) bool { return winOps[i].kind == opTune }
	lat := summarizeSliced(open.micros(isTune))
	res.diag("latency_p50_us", lat.P50, "us", "lower", fmt.Sprintf("single /v1/tune, open loop at %.0f/s, median over %d slices, n=%d", rate, lat.Slices, lat.N))
	res.diag("latency_tail_us", lat.Tail, "us", "lower", lat.tailNote())
	batch := summarize(open.micros(func(i int) bool { return winOps[i].kind == opBatch }))
	res.diag("batch_tail_us", batch.Tail, "us", "lower", batch.tailNote())
	tunes, onTime := 0, 0
	for i := range winOps {
		if isTune(i) {
			tunes++
			if open.OK[i] && open.Latency[i] <= sloLimit {
				onTime++
			}
		}
	}
	res.diag("tune_slo_ratio", float64(onTime)/float64(max(tunes, 1)), "ratio", "higher", fmt.Sprintf("within %v of due, n=%d", sloLimit, tunes))
	lag := summarize(open.lagMicros())
	res.diag("gen.lag_tail_us", lag.Tail, "us", "lower", lag.tailNote())

	cl := closedLoop(ctx, client, len(closed), closedWin, send(closed))
	res.ops(len(cl.OK), cl.failed())
	res.diag("throughput_per_s", cl.throughput(), "1/s", "higher", fmt.Sprintf("closed loop /v1/tune, %d conns, median of %d slices", maxConns, throughputSlices))
	if ctx.Err() != nil {
		return ctx.Err()
	}

	c := &conn{client: client}
	if !cold {
		st, err := fetchStats(ctx, c, base)
		if err != nil {
			return err
		}
		if st.Cache.Misses != uint64(len(hot)) {
			res.problem("tune-hot: daemon counted %d misses for %d distinct keys", st.Cache.Misses, len(hot))
		}
	}
	eff, err := planEfficiency(ctx, c, base, eval, replies)
	if err != nil {
		return err
	}
	res.ops(len(eval), 0)
	res.set("efficiency", eff, "ratio", fmt.Sprintf("plan efficiency over %d fixed keys", len(eval)))
	res.failures(replies.check())
	return nil
}
