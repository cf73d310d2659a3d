package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
)

// badChampionTuner trains a tuner on the tiny space with every runtime
// (and serial baseline) scaled 1000x. The ratios — and with them every
// serial/parallel decision — are untouched, but the modeled runtimes are
// three orders of magnitude off the engine's measurements, so any
// challenger trained on real observations beats it decisively. This is
// the e2e analogue of the retrain package's inverted-runtime fixture.
func badChampionTuner(t *testing.T) *core.Tuner {
	t.Helper()
	space := core.Space{
		Dims:      []int{300, 700, 1500},
		TSizes:    []float64{10, 200, 3000},
		DSizes:    []int{1, 5},
		CPUTiles:  []int{1, 8},
		BandFracs: []float64{-1, 0.5, 1.0},
		HaloFracs: []float64{-1, 0, 1.0},
		GPUTiles:  []int{1, 8},
	}
	sr, err := core.Exhaustive(hw.I7_2600K(), space, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scaled := &core.SearchResult{Sys: sr.Sys, Space: sr.Space}
	for _, ir := range sr.Instances {
		out := core.InstanceResult{Inst: ir.Inst, SerialNs: ir.SerialNs * 1000}
		for _, p := range ir.Points {
			p.RTimeNs *= 1000
			out.Points = append(out.Points, p)
		}
		scaled.Instances = append(scaled.Instances, out)
	}
	tun, err := core.Train(scaled, core.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tun
}

// TestRetrainPromotionEndToEnd is the full loop over HTTP: a daemon
// boots with a deliberately miscalibrated champion and a tiny retrain
// interval, refine jobs flow observations into the training log, the
// background retrainer shadow-trains a challenger off the log, the
// guardrail passes, /v1/systems reports the promoted generation 2, and
// the system's cache entries are invalidated. /metrics renders the
// retrain counters from the same snapshot /v1/stats reports.
func TestRetrainPromotionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := newTestServer(t, Config{
		Tuners: NewStaticSource(badChampionTuner(t)),
		Jobs:   JobOptions{Workers: 2, TrainingLogDir: dir},
		Retrain: RetrainOptions{
			Interval:        50 * time.Millisecond,
			MinObservations: 6,
		},
	})
	defer s.Shutdown(context.Background())
	if s.Retrainer() == nil {
		t.Fatal("retrainer not constructed despite training-log dir")
	}

	// Generation 1 (the factory champion) is reported before anything
	// was observed.
	if gen := getSystems(t, ts.URL)[0].Generation; gen != 1 {
		t.Fatalf("initial generation = %d, want 1", gen)
	}

	// Refine jobs are the observation source: each successful refinement
	// appends its measured configuration to the training log and pokes
	// the retrainer awake.
	dims := []int{1200, 1500, 1900, 2300}
	for round := 0; round < 2; round++ {
		for _, dim := range dims {
			body := fmt.Sprintf(`{"system":"i7-2600K","dim":%d,"tsize":3000,"dsize":1,"refine":true}`, dim)
			ji, resp := postJob(t, ts.URL, body)
			if resp.StatusCode != 202 {
				t.Fatalf("submit status %d", resp.StatusCode)
			}
			if done := pollJob(t, ts.URL, ji.ID); done.State != "succeeded" {
				t.Fatalf("job %s finished %q, want succeeded", ji.ID, done.State)
			} else if done.Result != nil && done.Result.Serial {
				t.Fatalf("dim %d chose the serial baseline; no observation logged", dim)
			}
		}
	}

	// The promotion lands asynchronously once MinObservations accumulate.
	// Keep observations flowing while waiting: a retrain attempt that
	// lands between submissions consumes its rows, so fresh refine jobs
	// refill the log until an attempt promotes.
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		if gen := getSystems(t, ts.URL)[0].Generation; gen >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("promotion never landed; retrain status %+v", getStats(t, ts.URL).Retrain)
		}
		body := fmt.Sprintf(`{"system":"i7-2600K","dim":%d,"tsize":3000,"dsize":1,"refine":true}`,
			dims[i%len(dims)])
		ji, _ := postJob(t, ts.URL, body)
		pollJob(t, ts.URL, ji.ID)
		time.Sleep(20 * time.Millisecond)
	}
	// Stopped, the retrainer's counters hold still between the two reads
	// below.
	s.Retrainer().Stop()
	st := getStats(t, ts.URL)
	if st.Retrain == nil {
		t.Fatal("/v1/stats has no retrain block")
	}
	last := st.Retrain.Systems["i7-2600K"]
	if last.Promotions < 1 || last.Retrains < 1 {
		t.Fatalf("promoted status inconsistent: %+v", last)
	}
	if last.LastVerdict != "promote" || last.Verdict == nil || !last.Verdict.Promote {
		t.Fatalf("promoted without a promote verdict: %+v", last)
	}
	if last.LastPromotionUnix == 0 || last.LastGenerationID == "" {
		t.Fatalf("promotion provenance missing: %+v", last)
	}

	// The promotion is visible on /metrics under the label sets README.md
	// documents: {system} for the generation, {system,event} for events,
	// each event line equal to its /v1/stats counter and present only
	// when nonzero.
	text := scrapeMetrics(t, ts.URL)
	want := []string{
		`waved_model_generation{system="i7-2600K"} 2`,
		fmt.Sprintf("waved_retrain_cycles_total %d", st.Retrain.Cycles),
		fmt.Sprintf("waved_retrain_bad_rows_total %d", last.BadRows),
	}
	events := 0
	for _, e := range []struct {
		n     uint64
		event string
	}{{last.Retrains, "trained"}, {last.Promotions, "promoted"}, {last.Rejections, "rejected"}, {last.Errors, "error"}} {
		if e.n > 0 {
			events++
			want = append(want, fmt.Sprintf(`waved_retrain_events_total{system="i7-2600K",event="%s"} %d`, e.event, e.n))
		}
	}
	for _, line := range want {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing line %q", line)
		}
	}
	if got := strings.Count(text, "\nwaved_retrain_events_total{"); got != events {
		t.Errorf("exposition has %d retrain event lines, want the %d nonzero counters", got, events)
	}

	// The jobs warmed plan-cache entries for the champion; the promotion
	// must have dropped them so the challenger serves from here on.
	if st.Cache.Invalidations == 0 {
		t.Fatalf("promotion invalidated nothing: %+v", st.Cache)
	}

	// Serving continues against the promoted model (any cache entries
	// present now were filled by the challenger after the invalidation).
	tr, resp := postTune(t, ts.URL, `{"system":"i7-2600K","dim":1900,"tsize":3000,"dsize":1}`)
	if resp.StatusCode != 200 {
		t.Fatalf("post-promotion tune status %d", resp.StatusCode)
	}
	if tr.RTimeSec <= 0 {
		t.Fatalf("post-promotion tune returned no runtime: %+v", tr)
	}
}
