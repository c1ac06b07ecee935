package buffer

// frameList is an intrusive doubly-linked list of frames with a sentinel,
// ordered from least- to most-recently used for the recency policies.
type frameList struct {
	head Frame // sentinel
	size int
}

func newFrameList() *frameList {
	l := &frameList{}
	l.head.prev = &l.head
	l.head.next = &l.head
	return l
}

func (l *frameList) pushBack(f *Frame) {
	f.prev = l.head.prev
	f.next = &l.head
	f.prev.next = f
	f.next.prev = f
	l.size++
}

func (l *frameList) remove(f *Frame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
	l.size--
}

func (l *frameList) front() *Frame {
	if l.size == 0 {
		return nil
	}
	return l.head.next
}

func (l *frameList) back() *Frame {
	if l.size == 0 {
		return nil
	}
	return l.head.prev
}

// LRU evicts the least-recently-used page — the "traditional buffer
// manager" baseline of the paper's evaluation.
type LRU struct {
	list *frameList
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{list: newFrameList()} }

// Admitted implements Policy.
func (l *LRU) Admitted(f *Frame) { l.list.pushBack(f) }

// Accessed implements Policy.
func (l *LRU) Accessed(f *Frame) {
	l.list.remove(f)
	l.list.pushBack(f)
}

// Removed implements Policy.
func (l *LRU) Removed(f *Frame) { l.list.remove(f) }

// Victim implements Policy: the coldest unpinned frame.
func (l *LRU) Victim() *Frame {
	for f := l.list.front(); f != nil && f != &l.list.head; f = f.next {
		if !f.Pinned() && !f.Loading() {
			return f
		}
	}
	return nil
}

// MRU evicts the most-recently-used page; historically suggested for
// looping scans (related work, [4]).
type MRU struct {
	list *frameList
}

// NewMRU returns an MRU policy.
func NewMRU() *MRU { return &MRU{list: newFrameList()} }

// Admitted implements Policy.
func (m *MRU) Admitted(f *Frame) { m.list.pushBack(f) }

// Accessed implements Policy.
func (m *MRU) Accessed(f *Frame) {
	m.list.remove(f)
	m.list.pushBack(f)
}

// Removed implements Policy.
func (m *MRU) Removed(f *Frame) { m.list.remove(f) }

// Victim implements Policy: the hottest unpinned frame.
func (m *MRU) Victim() *Frame {
	for f := m.list.back(); f != nil && f != &m.list.head; f = f.prev {
		if !f.Pinned() && !f.Loading() {
			return f
		}
	}
	return nil
}

// Clock is the classic second-chance approximation of LRU.
type Clock struct {
	list *frameList
	hand *Frame
}

// NewClock returns a Clock policy.
func NewClock() *Clock { return &Clock{list: newFrameList()} }

// Admitted implements Policy.
func (c *Clock) Admitted(f *Frame) {
	f.refbit = true
	c.list.pushBack(f)
}

// Accessed implements Policy.
func (c *Clock) Accessed(f *Frame) { f.refbit = true }

// Removed implements Policy.
func (c *Clock) Removed(f *Frame) {
	if c.hand == f {
		c.hand = f.next
	}
	c.list.remove(f)
}

// Victim implements Policy: sweep the ring clearing reference bits.
func (c *Clock) Victim() *Frame {
	if c.list.size == 0 {
		return nil
	}
	if c.hand == nil || c.hand == &c.list.head {
		c.hand = c.list.front()
	}
	// Two full sweeps guarantee we either find a victim or conclude all
	// frames are pinned.
	for i := 0; i < 2*c.list.size; i++ {
		f := c.hand
		c.hand = f.next
		if c.hand == &c.list.head {
			c.hand = c.list.front()
		}
		if f == &c.list.head {
			continue
		}
		if f.Pinned() || f.Loading() {
			continue
		}
		if f.refbit {
			f.refbit = false
			continue
		}
		return f
	}
	return nil
}
