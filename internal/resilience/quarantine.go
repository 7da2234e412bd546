package resilience

import "sync/atomic"

// quarantineSlots is the number of poison-pill fingerprints a Quarantine
// retains; when full the oldest entry is overwritten.
const quarantineSlots = 64

// Quarantine is a fixed-size ring of poison-pill fingerprints. Admission
// calls Check on every request's fingerprint once Adds is nonzero — a linear
// scan over a few cache lines of atomics, lock- and allocation-free; before
// that the ring is empty and admission neither hashes nor checks — and
// bisection calls Add when it convicts a culprit. Slot value 0 means empty
// (Fingerprint never returns 0); no slot is ever emptied again.
type Quarantine struct {
	slots []atomic.Uint64
	head  atomic.Uint64

	adds atomic.Uint64
	hits atomic.Uint64
}

// NewQuarantine builds an empty quarantine ring of quarantineSlots.
func NewQuarantine() *Quarantine {
	return &Quarantine{slots: make([]atomic.Uint64, quarantineSlots)}
}

// Check reports whether fp is quarantined, counting a hit if so.
func (q *Quarantine) Check(fp uint64) bool {
	for i := range q.slots {
		if q.slots[i].Load() == fp {
			q.hits.Add(1)
			return true
		}
	}
	return false
}

// Add records fp as a poison pill, overwriting the oldest entry when the
// ring is full. Re-adding a fingerprint already present is a no-op.
func (q *Quarantine) Add(fp uint64) {
	if fp == 0 {
		return
	}
	for i := range q.slots {
		if q.slots[i].Load() == fp {
			return
		}
	}
	q.slots[(q.head.Add(1)-1)%uint64(len(q.slots))].Store(fp)
	q.adds.Add(1)
}

// Size reports how many slots currently hold a fingerprint.
func (q *Quarantine) Size() int {
	n := 0
	for i := range q.slots {
		if q.slots[i].Load() != 0 {
			n++
		}
	}
	return n
}

// Adds reports how many distinct fingerprints have been quarantined.
func (q *Quarantine) Adds() uint64 { return q.adds.Load() }

// Hits reports how many admissions matched a quarantined fingerprint.
func (q *Quarantine) Hits() uint64 { return q.hits.Load() }
