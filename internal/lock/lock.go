// Package lock provides a strict two-phase lock manager with shared
// and exclusive modes over named resources. The PMV protocol of
// Section 3.6 uses it: a query holds an S lock on the PMV from
// Operation O2 through O3, and maintenance takes an X lock, so no
// transaction can invalidate partial results a reader has already
// emitted.
package lock

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// String renders the mode.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// ErrTimeout is returned when a lock cannot be acquired before the
// deadline; the engine treats it as a deadlock signal and aborts.
var ErrTimeout = errors.New("lock: acquisition timed out (possible deadlock)")

type resource struct {
	holders map[uint64]Mode // txn → strongest mode held
	waiting int
}

func (r *resource) compatible(txn uint64, m Mode) bool {
	for id, held := range r.holders {
		if id == txn {
			continue // upgrades checked against other holders only
		}
		if m == Exclusive || held == Exclusive {
			return false
		}
	}
	return true
}

// Manager is a lock manager. The zero value is not usable; call New.
type Manager struct {
	mu    sync.Mutex
	cond  *sync.Cond
	table map[string]*resource
	// free holds resources released with no holder and no waiter, their
	// holder maps empty, for the next resource to be locked.
	free []*resource
	// DefaultTimeout bounds waits when Acquire is called with zero
	// timeout.
	DefaultTimeout time.Duration
}

// New returns an empty lock manager.
func New() *Manager {
	m := &Manager{table: make(map[string]*resource), DefaultTimeout: 5 * time.Second}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Acquire blocks until txn holds res in mode (upgrading S→X in place
// when possible), or the timeout elapses. A lock no other holder
// conflicts with is granted at once, with no timer and, once the
// manager has locked and released some resource, no allocation; only a
// wait arms the timer that bounds it.
func (m *Manager) Acquire(txn uint64, res string, mode Mode, timeout time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.table[res]
	if !ok {
		if n := len(m.free); n > 0 {
			r, m.free = m.free[n-1], m.free[:n-1]
		} else {
			r = &resource{holders: make(map[uint64]Mode)}
		}
		m.table[res] = r
	}
	if held, has := r.holders[txn]; has && (held == Exclusive || held == mode) {
		return nil // already strong enough
	}
	if r.compatible(txn, mode) {
		r.holders[txn] = mode
		return nil
	}
	if timeout <= 0 {
		timeout = m.DefaultTimeout
	}
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()
	r.waiting++
	defer func() { r.waiting-- }()
	for !r.compatible(txn, mode) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: txn %d wants %s on %q", ErrTimeout, txn, mode, res)
		}
		m.cond.Wait()
	}
	r.holders[txn] = mode
	return nil
}

// drop forgets resource res, which has no holder and no waiter left,
// keeping it for reuse.
func (m *Manager) drop(res string, r *resource) {
	delete(m.table, res)
	m.free = append(m.free, r)
}

// Release drops txn's lock on res.
func (m *Manager) Release(txn uint64, res string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.table[res]; ok {
		delete(r.holders, txn)
		if len(r.holders) == 0 && r.waiting == 0 {
			m.drop(res, r)
		}
		m.cond.Broadcast()
	}
}

// ReleaseAll drops every lock txn holds (commit/abort).
func (m *Manager) ReleaseAll(txn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for name, r := range m.table {
		if _, ok := r.holders[txn]; ok {
			delete(r.holders, txn)
			changed = true
			if len(r.holders) == 0 && r.waiting == 0 {
				m.drop(name, r)
			}
		}
	}
	if changed {
		m.cond.Broadcast()
	}
}

// Holds reports whether txn currently holds res at least at mode.
func (m *Manager) Holds(txn uint64, res string, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.table[res]
	if !ok {
		return false
	}
	held, has := r.holders[txn]
	if !has {
		return false
	}
	return held == Exclusive || held == mode
}
