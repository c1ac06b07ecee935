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

// Recency evicts by recency of use: LRU, the "traditional buffer
// manager" baseline of the paper's evaluation, takes the coldest unpinned
// page; MRU, historically suggested for looping scans (related work,
// [4]), the hottest.
type Recency struct {
	list *frameList
	mru  bool
}

// NewLRU returns the LRU policy.
func NewLRU() *Recency { return &Recency{list: newFrameList()} }

// NewMRU returns the MRU policy.
func NewMRU() *Recency { return &Recency{list: newFrameList(), mru: true} }

// Admitted implements Policy.
func (r *Recency) Admitted(f *Frame) { r.list.pushBack(f) }

// Accessed implements Policy.
func (r *Recency) Accessed(f *Frame) {
	r.list.remove(f)
	r.list.pushBack(f)
}

// Removed implements Policy.
func (r *Recency) Removed(f *Frame) { r.list.remove(f) }

// Victim implements Policy: the first unpinned frame from the cold end of
// the list, or from the hot end under MRU.
func (r *Recency) Victim() *Frame {
	f := r.list.head.next
	if r.mru {
		f = r.list.head.prev
	}
	for f != &r.list.head {
		if !f.Pinned() && !f.Loading() {
			return f
		}
		if r.mru {
			f = f.prev
		} else {
			f = f.next
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
