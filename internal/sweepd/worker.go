package sweepd

import (
	"fmt"
	"time"

	"smtsim"
	"smtsim/internal/cellstore"
)

// worker drains the cell queue until Shutdown. Each iteration claims
// one cell end to end — check store, lease, simulate, persist,
// release — so Shutdown's wg.Wait() is the cell boundary: a worker
// never abandons a half-simulated lease it still holds.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			// Stop even with a non-empty queue: Shutdown checkpoints
			// whatever is left.
			return
		default:
		}
		hash, ok := s.pop()
		if !ok {
			select {
			case <-s.quit:
				return
			case <-s.wake:
			case <-time.After(s.cfg.pollInterval()):
			}
			continue
		}
		s.process(hash)
	}
}

// pop removes the oldest queued hash.
func (s *Server) pop() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return "", false
	}
	hash := s.queue[0]
	s.queue = s.queue[1:]
	s.stats.QueueDepth--
	return hash, true
}

// requeue puts a hash back at the queue tail (used when shutdown
// interrupts a cell the worker was waiting on).
func (s *Server) requeue(hash string) {
	s.mu.Lock()
	s.queue = append(s.queue, hash)
	s.stats.QueueDepth++
	s.mu.Unlock()
}

// process resolves one queued cell. The store is the source of truth
// at every step: another worker process sharing the directory may have
// finished the cell already (serve it), may be simulating it right now
// (wait; steal the lease if it expires — the owner died), or this
// process simulates it and persists the result.
func (s *Server) process(hash string) {
	s.mu.Lock()
	f := s.flights[hash]
	if f == nil || f.done {
		s.mu.Unlock()
		return
	}
	spec := f.spec
	s.mu.Unlock()

	for {
		if _, ok, err := s.store.Get(hash); err == nil && ok {
			s.finish(hash, "")
			return
		} else if err != nil {
			s.finish(hash, err.Error())
			return
		}
		acquired, err := s.store.TryLease(hash, s.cfg.Owner, s.cfg.leaseTTL())
		if err != nil {
			s.finish(hash, err.Error())
			return
		}
		if acquired {
			break
		}
		// A live foreign lease: some other worker process is on it.
		// Wait for either its result to land or its lease to expire
		// (then the loop steals the cell).
		owner, _, _ := s.store.LeaseHolder(hash)
		s.cfg.Logf("sweepd: cell %.8s leased by %s, waiting", hash, owner)
		select {
		case <-s.quit:
			s.requeue(hash)
			return
		case <-time.After(s.cfg.pollInterval()):
		}
	}

	s.mu.Lock()
	s.stats.Inflight++
	s.mu.Unlock()
	res, err := s.simulate(spec)
	s.mu.Lock()
	s.stats.Inflight--
	s.stats.Simulations++
	s.mu.Unlock()

	if err != nil {
		s.store.Release(hash, s.cfg.Owner)
		s.finish(hash, fmt.Sprintf("simulating %.8s: %v", hash, err))
		return
	}
	if _, err := s.store.Put(spec, res); err != nil {
		s.store.Release(hash, s.cfg.Owner)
		s.finish(hash, err.Error())
		return
	}
	s.store.Release(hash, s.cfg.Owner)
	s.finish(hash, "")
}

// simulate runs one cell, turning a panic in the simulator into that
// cell's error: one bad cell must not take the daemon down, and a
// resubmission retries it.
func (s *Server) simulate(spec cellstore.Spec) (res smtsim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return s.cfg.Simulate(spec)
}
