package main

// The workloads' inputs: fixed key universes and seeded streams over
// them. The daemon only ever sees what is generated here. The universes
// (tune-hot's 256 keys, tune-cold's 100k instances) do not depend on the
// seed, so runs on different seeds measure the same mix; -seed drives
// which keys every stream draws and when every operation is due, and the
// same seed always reproduces both.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/wavefront"
)

// Workload names, in the order a full run executes them.
const (
	wlTuneHot  = "tune-hot"
	wlTuneCold = "tune-cold"
	wlJobs     = "jobs-feedback"
	wlHost     = "host-sweep"
)

var allWorkloads = []string{wlTuneHot, wlTuneCold, wlJobs, wlHost}

// appNames fixes the nine registry applications the workloads cover, so
// registering a new app changes no workload.
var appNames = []string{
	"synthetic", "nash", "seqcompare", "knapsack", "swaffine",
	"lcs", "dtw", "nussinov", "morphrecon",
}

// systemNames are the three Table 4 systems the daemon serves.
var systemNames = []string{"i7-2600K", "i3-540", "i7-3820"}

// Key universes and request mix. hotKeyCount keys fit in the daemon's
// cacheCapacity, so tune-hot is all hits after warm-up; tune-cold's
// Zipf over coldUniverse keys keeps the hit ratio near one half at the
// same capacity, which makes misses (engine.Estimate) a large share of
// its cost.
const (
	hotKeyCount   = 256
	cacheCapacity = 512
	coldUniverse  = 100_000
	coldZipfS     = 1.1
	batchItems    = 32
	batchShare    = 0.10
)

// Job mix of jobs-feedback: the rest of the job stream is plain jobs.
const (
	refineShare   = 0.25
	pipelineShare = 0.15
)

// Frozen open-loop rates in operations per second. They were calibrated
// once, on a shared 2-vCPU host with GOMAXPROCS=2, at about a quarter of
// the closed-loop capacity of each mix measured there (tune-hot 7.9k,
// tune-cold 1.5k ops/s): at half of it, other tenants' bursts pushed
// that host into queueing and latency swung by a factor of five between
// runs. They are never adapted at run time, so a parent commit and a
// change receive identical load.
const (
	hotRate  = 2000.0
	coldRate = 400.0
	jobRate  = 200.0
	readRate = 200.0
)

// mix is a splitmix64 generator: cheap to seed per stream, so streams of
// one seed never perturb each other.
type mix uint64

func newMix(seed int64, salt uint64) *mix {
	m := mix(uint64(seed)*0x9e3779b97f4a7c15 ^ salt*0xc2b2ae3d27d4eb4f)
	m.next()
	return &m
}

func (m *mix) next() uint64 {
	*m += 0x9e3779b97f4a7c15
	z := uint64(*m)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (m *mix) intn(n int) int { return int(m.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (m *mix) float() float64 { return float64(m.next()>>11) / (1 << 53) }

// logUniform returns a value log-uniformly distributed in [lo, hi],
// rounded to three significant digits to keep request bodies short.
func (m *mix) logUniform(lo, hi float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(lo*math.Pow(hi/lo, m.float()), 'g', 3, 64), 64)
	return v
}

// tuneRequest is the wire form of one POST /v1/tune body (and of the
// instance part of a job).
type tuneRequest struct {
	System string             `json:"system,omitempty"`
	Dim    int                `json:"dim,omitempty"`
	Rows   int                `json:"rows,omitempty"`
	Cols   int                `json:"cols,omitempty"`
	App    string             `json:"app"`
	Params map[string]float64 `json:"params,omitempty"`
}

// tuneKey is one distinct tune request with the instance the daemon must
// echo for it, derived through the public app registry.
type tuneKey struct {
	req  tuneRequest
	sys  wavefront.System
	inst wavefront.Instance // normalized, as the daemon serves it
	// cacheKey identifies the daemon's plan-cache entry for the key.
	cacheKey string
	body     []byte
}

func newTuneKey(system, app string, rows, cols int, params map[string]float64) (*tuneKey, error) {
	sys, ok := wavefront.SystemByName(system)
	if !ok {
		return nil, fmt.Errorf("unknown system %q", system)
	}
	a, ok := wavefront.AppByName(app)
	if !ok {
		return nil, fmt.Errorf("unknown app %q", app)
	}
	inst, _, err := a.InstanceFor(rows, cols, wavefront.AppValues(params))
	if err != nil {
		return nil, err
	}
	k := &tuneKey{sys: sys, inst: inst, cacheKey: system + "|" + inst.CacheKey()}
	k.req = tuneRequest{System: system, App: app, Params: params}
	if rows == cols {
		k.req.Dim = rows
	} else {
		k.req.Rows, k.req.Cols = rows, cols
	}
	if k.body, err = json.Marshal(k.req); err != nil {
		return nil, err
	}
	return k, nil
}

// randShape draws a side length in 300..3300 (steps of 100), and with
// probability 1/3 (when allowed) an independent second side.
func randShape(m *mix, rectOK bool) (rows, cols int) {
	side := func() int { return 300 + 100*m.intn(31) }
	rows = side()
	if rectOK && m.intn(3) == 0 {
		return rows, side()
	}
	return rows, rows
}

// randParams draws the application parameters of one hot key. Apps
// without parameters get none; parameters that do not change the
// instance (scores, seeds) still vary the request body.
func randParams(m *mix, app string) map[string]float64 {
	switch app {
	case "synthetic":
		return map[string]float64{"tsize": m.logUniform(10, 12000), "dsize": float64(1 + 2*m.intn(3))}
	case "nash":
		return map[string]float64{"rounds": float64(1 + m.intn(4))}
	case "seqcompare":
		return map[string]float64{"match": float64(1 + m.intn(3))}
	case "swaffine":
		return map[string]float64{"gap_open": float64(6 + m.intn(9))}
	case "nussinov":
		return map[string]float64{"min_loop": float64(3 + m.intn(3))}
	case "morphrecon":
		return map[string]float64{"threshold": float64(32 + 8*m.intn(25)), "seed": float64(1 + m.intn(9))}
	}
	return nil
}

// hotKeys returns tune-hot's universe: hotKeyCount keys with distinct
// plan-cache entries, cycling through all nine apps, with square and
// rectangular shapes on all three systems.
func hotKeys() ([]*tuneKey, error) {
	m := newMix(0, 1)
	seen := make(map[string]bool)
	var keys []*tuneKey
	for i := 0; len(keys) < hotKeyCount; i++ {
		app := appNames[i%len(appNames)]
		system := systemNames[m.intn(len(systemNames))]
		rows, cols := randShape(m, app != "nussinov")
		k, err := newTuneKey(system, app, rows, cols, randParams(m, app))
		if err != nil {
			return nil, err
		}
		if seen[k.cacheKey] {
			continue
		}
		seen[k.cacheKey] = true
		keys = append(keys, k)
	}
	return keys, nil
}

// coldKey derives instance r of tune-cold's universe: a synthetic-app
// instance with sides 300..3300, one in four rectangular, log-uniform
// tsize in [10, 12000] and dsize 1, 3 or 5.
func coldKey(r int) (*tuneKey, error) {
	m := newMix(0, 2+uint64(r)<<8)
	system := systemNames[m.intn(len(systemNames))]
	rows := 300 + m.intn(3001)
	cols := rows
	if m.intn(4) == 0 {
		cols = 300 + m.intn(3001)
	}
	params := map[string]float64{"tsize": m.logUniform(10, 12000), "dsize": float64(1 + 2*m.intn(3))}
	return newTuneKey(system, "synthetic", rows, cols, params)
}

// keySource draws the keys of one stream.
type keySource interface {
	next() (*tuneKey, error)
}

// uniformKeys draws uniformly from a fixed key list.
type uniformKeys struct {
	keys []*tuneKey
	m    *mix
}

func newUniformKeys(keys []*tuneKey, seed int64, salt uint64) *uniformKeys {
	return &uniformKeys{keys: keys, m: newMix(seed, 0x4e1+salt)}
}

func (u *uniformKeys) next() (*tuneKey, error) { return u.keys[u.m.intn(len(u.keys))], nil }

// coldKeys is tune-cold's universe, each rank's key derived on first use
// and shared by every stream of the run. It is not safe for concurrent
// use; streams are drawn before any traffic starts.
type coldKeys map[int]*tuneKey

func (c coldKeys) key(r int) (*tuneKey, error) {
	if k, ok := c[r]; ok {
		return k, nil
	}
	k, err := coldKey(r)
	if err != nil {
		return nil, err
	}
	c[r] = k
	return k, nil
}

// zipfKeys draws Zipf-distributed ranks of the cold universe.
type zipfKeys struct {
	u coldKeys
	z *rand.Zipf
}

func newZipfKeys(u coldKeys, seed int64, salt uint64) *zipfKeys {
	r := rand.New(rand.NewSource(int64(newMix(seed, 0x21f+salt).next() >> 1)))
	return &zipfKeys{u: u, z: rand.NewZipf(r, coldZipfS, 1, coldUniverse-1)}
}

func (z *zipfKeys) next() (*tuneKey, error) { return z.u.key(int(z.z.Uint64())) }

// evalKeys picks n keys spread evenly over a universe: the fixed sample
// whose served plans plan efficiency rates, the same on every seed.
func evalKeys(n int, key func(i int) (*tuneKey, error), size int) ([]*tuneKey, error) {
	out := make([]*tuneKey, 0, n)
	for i := 0; i < n; i++ {
		k, err := key(i * size / n)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// opKind is what one scheduled operation sends.
type opKind int

const (
	opTune     opKind = iota // POST /v1/tune
	opBatch                  // POST /v1/tune/batch with batchItems items
	opJob                    // POST /v1/jobs
	opRefine                 // POST /v1/jobs with refine
	opPipeline               // POST /v1/pipelines, two waves of two jobs
)

// op is one scheduled operation: its due time relative to the start of
// its window, the keys it carries and its encoded request body.
type op struct {
	due  time.Duration
	kind opKind
	keys []*tuneKey
	body []byte
}

// opMix gives the probability of each op kind; kinds left out have
// probability zero.
type opMix map[opKind]float64

func (om opMix) draw(u float64) opKind {
	acc := 0.0
	for k := opTune; k <= opPipeline; k++ {
		acc += om[k]
		if u < acc {
			return k
		}
	}
	return opTune
}

// keysPerOp is how many keys an op of each kind carries.
func keysPerOp(k opKind) int {
	switch k {
	case opBatch:
		return batchItems
	case opPipeline:
		return 4
	}
	return 1
}

// schedule draws a Poisson arrival stream at rate ops/s over window (or,
// for rate 0, n back-to-back ops due at once, as a closed loop sends
// them), each op of a kind drawn from om with keys drawn from src and
// its request body encoded. salt separates the streams of one seed
// (warm-up, window, closed loop).
func schedule(seed int64, salt uint64, rate float64, window time.Duration, n int, om opMix, src keySource) ([]op, error) {
	m := newMix(seed, 0x5eed+salt)
	var ops []op
	t := 0.0
	for {
		var due time.Duration
		if rate > 0 {
			t += -math.Log(1-m.float()) / rate
			if due = time.Duration(t * float64(time.Second)); due >= window {
				return ops, nil
			}
		} else if len(ops) == n {
			return ops, nil
		}
		o := op{due: due, kind: om.draw(m.float())}
		o.keys = make([]*tuneKey, keysPerOp(o.kind))
		for i := range o.keys {
			k, err := src.next()
			if err != nil {
				return nil, err
			}
			o.keys[i] = k
		}
		var err error
		if o.body, err = encodeOp(o); err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
}

// dueTimes extracts the schedule of an op list.
func dueTimes(ops []op) []time.Duration {
	out := make([]time.Duration, len(ops))
	for i, o := range ops {
		out[i] = o.due
	}
	return out
}
