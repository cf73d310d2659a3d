// Package des is a small discrete-event simulation engine with a virtual
// clock, used to model the heterogeneous platforms of the paper. Events
// execute in non-decreasing time order with deterministic FIFO
// tie-breaking, so every simulation is exactly reproducible.
//
// The engine is callback-based: an event is a function scheduled at an
// absolute virtual time. Resources provide FIFO queuing with a fixed
// capacity, which the simulated OpenCL layer uses for in-order command
// queues and for contention on the shared PCIe link.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   float64
	seq   int64
	queue eventHeap
}

type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay nanoseconds of virtual time. Negative or
// NaN delays are programming errors and panic.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past (%v < %v)", t, e.now))
	}
	e.seq++
	heap.Push(&e.queue, &event{at: t, seq: e.seq, fn: fn})
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() float64 {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// Resource is a FIFO-ordered resource with a fixed number of slots, e.g. a
// PCIe link (capacity 1) or a pool of CPU worker threads. Acquire enqueues
// a request; when a slot frees, the longest-waiting request is granted.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  []func()
	// Busy accumulates slot-nanoseconds of use for utilization reporting.
	Busy float64
}

// NewResource creates a resource with the given slot count.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("des: resource %q needs capacity >= 1, got %d", name, capacity))
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// Acquire requests a slot and calls granted (as a new event at the grant
// time) once one is available. The holder must call Release exactly once.
func (r *Resource) Acquire(granted func()) {
	if r.inUse < r.capacity {
		r.inUse++
		r.eng.Schedule(0, granted)
		return
	}
	r.waiters = append(r.waiters, granted)
}

// Release frees a slot, waking the longest-waiting acquirer if any.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic(fmt.Sprintf("des: release of idle resource %q", r.name))
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.eng.Schedule(0, next)
		return
	}
	r.inUse--
}

// Use acquires the resource, holds it for dur nanoseconds, then releases
// it and calls done (which may be nil). It is the common
// acquire-occupy-release pattern for modeling transfers and kernels.
func (r *Resource) Use(dur float64, done func()) {
	if dur < 0 || math.IsNaN(dur) {
		panic(fmt.Sprintf("des: invalid duration %v on %q", dur, r.name))
	}
	r.Acquire(func() {
		r.Busy += dur
		r.eng.Schedule(dur, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}

// Barrier joins n completions into one continuation: the returned function
// must be called n times, and on the n-th call cont is scheduled. A
// Barrier with n == 0 schedules cont immediately.
func (e *Engine) Barrier(n int, cont func()) func() {
	if n < 0 {
		panic("des: negative barrier count")
	}
	if n == 0 {
		e.Schedule(0, cont)
		return func() { panic("des: arrival at zero-count barrier") }
	}
	remaining := n
	return func() {
		remaining--
		if remaining == 0 {
			e.Schedule(0, cont)
		}
		if remaining < 0 {
			panic("des: barrier arrival count exceeded")
		}
	}
}

// Series runs a chain of steps sequentially: each step receives a next
// function it must call exactly once when finished (possibly after
// scheduling further events). After the last step, done is called.
func (e *Engine) Series(steps []func(next func()), done func()) {
	var run func(i int)
	run = func(i int) {
		if i >= len(steps) {
			if done != nil {
				e.Schedule(0, done)
			}
			return
		}
		steps[i](func() { run(i + 1) })
	}
	run(0)
}
