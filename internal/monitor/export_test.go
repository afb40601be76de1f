package monitor

// LogBodyPrefix exposes the event log's body bound to the external tests.
const LogBodyPrefix = logBodyPrefix

// LogBackingCaps reports the capacity of every body backing array the
// event log's slots own, so the external alias-safety tests can assert
// the bound on what the ring retains (a snapshot's copies say nothing
// about the slots' own arrays).
func (m *Monitor) LogBackingCaps() []int {
	var caps []int
	for i := range m.ring.slots {
		s := &m.ring.slots[i]
		s.mu.Lock()
		for _, b := range s.bodies {
			caps = append(caps, cap(b))
		}
		s.mu.Unlock()
	}
	return caps
}
