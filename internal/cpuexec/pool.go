package cpuexec

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by the executor's entry points once its pool has
// been closed.
var ErrClosed = errors.New("cpuexec: executor is closed")

// pool is a persistent worker pool used by the executor: workers live for
// the pool's lifetime and pick work items off a shared atomic counter,
// so no run pays a goroutine spawn per parallel region — the tile
// scheduler's one region per run, or the frontier executor's one per
// step.
type pool struct {
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	gen     int64 // generation counter; bumped per parallel region
	work    func(i int)
	n       int64 // items in the current region
	next    int64 // shared claim counter
	pending int64 // workers still draining the current region
	done    chan struct{}
	closed  bool
	wg      sync.WaitGroup // tracks worker goroutine lifetimes
}

// newPool starts workers goroutines.
func newPool(workers int) *pool {
	p := &pool{workers: workers, done: make(chan struct{}, 1)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	var seen int64
	for {
		p.mu.Lock()
		for p.gen == seen && !p.closed {
			p.cond.Wait()
		}
		if p.gen == seen {
			// Closed with no undrained region. A region published before
			// close must still be drained so its run() call unblocks;
			// exit only once the current generation is finished.
			p.mu.Unlock()
			return
		}
		seen = p.gen
		work, n := p.work, p.n
		p.mu.Unlock()

		for {
			i := atomic.AddInt64(&p.next, 1) - 1
			if i >= n {
				break
			}
			work(int(i))
		}
		if atomic.AddInt64(&p.pending, -1) == 0 {
			p.done <- struct{}{}
		}
	}
}

// run executes work(0..n-1) across the pool and blocks until all items
// complete. It must not be called concurrently with itself. On a closed
// pool it returns ErrClosed instead of deadlocking on workers that have
// already exited.
func (p *pool) run(n int, work func(i int)) error {
	if n <= 0 {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.work = work
	p.n = int64(n)
	atomic.StoreInt64(&p.next, 0)
	atomic.StoreInt64(&p.pending, int64(p.workers))
	p.gen++
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.done
	return nil
}

// isClosed reports whether close has been called.
func (p *pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// close terminates the workers and waits for them to exit. It is
// idempotent; run on a closed pool returns ErrClosed.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
