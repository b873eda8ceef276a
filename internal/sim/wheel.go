// Hierarchical timer wheel — the pending-event store behind Engine.
//
// The wheel keeps a near heap (a hand-rolled binary min-heap ordered by
// exact (time, sequence), no interface boxing) holding every event whose
// tick has been reached by the wheel cursor, plus numLevels overflow
// levels of wheelSlots slots each. Level k slots are 2^(tickBits+k*slotBits)
// ns wide; together the levels cover the full int64 time range, so there is
// no unbounded "far list". Slots are intrusive doubly-linked lists with an
// occupancy bitmap per level, so advancing across idle gaps is a bitmap
// scan rather than a tick-by-tick crawl, and cascade work is O(levels) per
// event amortized.
//
// Ordering invariant: every queued event with tick(at) <= cur sits in the
// near heap; slots only ever hold events with tick(at) > cur. The heap
// compares exact (at, seq), so the wheel reproduces the reference heap's
// total order bit for bit — the property test in wheel_test.go holds the
// two implementations against each other under randomized schedules.
package sim

import "math/bits"

const (
	tickBits   = 16 // 65.536µs per tick: LAN latencies span a few ticks
	slotBits   = 8
	wheelSlots = 1 << slotBits
	slotMask   = wheelSlots - 1
	numLevels  = 6 // 16 + 6*8 = 64 bits: covers all of Time
	bitmapLen  = wheelSlots / 64
)

const (
	whereFree uint8 = iota
	whereNear
	whereSlot
)

// node is a pooled scheduled event. Nodes live in exactly one place at a
// time (freelist, near heap, or a wheel slot), tracked by where. The
// generation counter invalidates stale Event handles on recycle.
type node struct {
	at  Time
	seq uint64
	fn  func()
	fnA func(any)
	arg any

	gen     uint32
	where   uint8
	level   uint8
	slot    uint16
	heapIdx int32
	prev    *node
	next    *node // also the freelist link
}

func (n *node) tick() uint64 { return uint64(n.at) >> tickBits }

// list is an intrusive doubly-linked slot list.
type list struct {
	head, tail *node
}

func (l *list) push(n *node) {
	n.prev = l.tail
	n.next = nil
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
}

func (l *list) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// wheel is the timer wheel plus its near heap.
type wheel struct {
	near []*node // binary min-heap by (at, seq)

	levels [numLevels][wheelSlots]list
	bitmap [numLevels][bitmapLen]uint64
	wheelN int    // events currently in slots (not in near)
	cur    uint64 // wheel cursor in ticks; see ordering invariant above

	count int // total pending

	// Cached head key, maintained so the executive's limit check is a
	// handful of integer compares instead of a wheel scan per step.
	headOK  bool
	headAt  Time
	headSeq uint64
}

// levelFor places a delta (in ticks, >= 1) on its wheel level.
func levelFor(delta uint64) int {
	lvl := (bits.Len64(delta) - 1) / slotBits
	if lvl >= numLevels {
		lvl = numLevels - 1
	}
	return lvl
}

func (s *wheel) insert(n *node) {
	s.count++
	tick := n.tick()
	if tick <= s.cur {
		s.heapPush(n)
		if s.headOK && (n.at < s.headAt || (n.at == s.headAt && n.seq < s.headSeq)) {
			s.headAt, s.headSeq = n.at, n.seq
		}
		return
	}
	s.toSlot(n, tick)
}

func (s *wheel) toSlot(n *node, tick uint64) {
	lvl := levelFor(tick - s.cur)
	// A delta near the top of its level's range can alias the cursor's
	// own slot (unit difference of exactly wheelSlots — one full wrap),
	// which would make cascade a no-op. One level up the same entry is a
	// clean one-unit offset. The top level never wraps: Time's 63 bits
	// leave at most 2^47 ticks, half of level 5's span.
	shift := uint(lvl) * slotBits
	if (tick>>shift)-(s.cur>>shift) >= wheelSlots {
		lvl++
		shift += slotBits
	}
	idx := uint16((tick >> shift) & slotMask)
	n.where = whereSlot
	n.level = uint8(lvl)
	n.slot = idx
	s.levels[lvl][idx].push(n)
	s.bitmap[lvl][idx>>6] |= 1 << (idx & 63)
	s.wheelN++
}

func (s *wheel) remove(n *node) {
	s.count--
	switch n.where {
	case whereNear:
		s.heapRemove(int(n.heapIdx))
		if s.headOK && n.at == s.headAt && n.seq == s.headSeq {
			s.headOK = false
		}
	case whereSlot:
		lvl, idx := int(n.level), n.slot
		l := &s.levels[lvl][idx]
		l.unlink(n)
		if l.head == nil {
			s.bitmap[lvl][idx>>6] &^= 1 << (idx & 63)
		}
		s.wheelN--
	}
	n.where = whereFree
}

// peek ensures the cached head key is valid, refilling the near heap from
// the slots as needed. It reports false when the wheel is empty.
func (s *wheel) peek() bool {
	if s.headOK {
		return true
	}
	if s.count == 0 {
		return false
	}
	s.refill()
	if len(s.near) == 0 {
		return false
	}
	h := s.near[0]
	s.headAt, s.headSeq, s.headOK = h.at, h.seq, true
	return true
}

// popHead removes and returns the earliest event. peek must have returned
// true immediately before.
func (s *wheel) popHead() *node {
	n := s.heapPop()
	s.count--
	n.where = whereFree
	// After a completed refill every slot-resident event is strictly
	// later than the wheel cursor, so the remaining heap minimum is still
	// the wheel minimum; only an empty heap forces another wheel scan.
	if len(s.near) > 0 {
		h := s.near[0]
		s.headAt, s.headSeq, s.headOK = h.at, h.seq, true
	} else {
		s.headOK = false
	}
	return n
}

// refill advances the wheel cursor until the near heap provably holds the
// wheel minimum: it repeatedly locates the earliest occupied slot across
// all levels (bitmap scan), cascades overflow slots downward, and drains
// level-0 slots into the heap, stopping once every remaining slot is
// strictly beyond the cursor.
func (s *wheel) refill() {
	for s.wheelN > 0 {
		bestTick, bestLvl := s.findEarliest()
		if bestLvl < 0 {
			return
		}
		if len(s.near) > 0 && bestTick > s.cur {
			// Heap holds ticks <= cur; every slot is later. Done.
			return
		}
		if bestTick > s.cur {
			s.cur = bestTick
		}
		s.drain(bestLvl, uint16((bestTick>>(uint(bestLvl)*slotBits))&slotMask))
	}
}

// findEarliest returns the earliest candidate tick over all levels and the
// level it lives on (ties go to the finest level). For level k the
// candidate is the start tick of the next occupied slot's span, clamped to
// the cursor — an upper-level slot can begin before cur while holding only
// later events, and draining it re-sorts those events onto lower levels.
func (s *wheel) findEarliest() (uint64, int) {
	var bestTick uint64
	bestLvl := -1
	for lvl := 0; lvl < numLevels; lvl++ {
		shift := uint(lvl) * slotBits
		pos := (s.cur >> shift) & slotMask
		off, ok := s.nextOccupied(lvl, pos)
		if !ok {
			continue
		}
		unit := (s.cur >> shift) + off
		cand := unit << shift
		if cand < s.cur {
			cand = s.cur
		}
		if bestLvl < 0 || cand < bestTick {
			bestTick, bestLvl = cand, lvl
		}
	}
	return bestTick, bestLvl
}

// nextOccupied scans level lvl's bitmap circularly from slot pos
// (inclusive) and returns the offset (0..wheelSlots-1) to the first
// occupied slot.
func (s *wheel) nextOccupied(lvl int, pos uint64) (uint64, bool) {
	bm := &s.bitmap[lvl]
	if bm[0]|bm[1]|bm[2]|bm[3] == 0 {
		return 0, false
	}
	word := int(pos >> 6)
	bit := pos & 63
	if w := bm[word] >> bit; w != 0 {
		return uint64(bits.TrailingZeros64(w)), true
	}
	for i := 1; i <= bitmapLen; i++ {
		w := bm[(word+i)%bitmapLen]
		if w != 0 {
			return uint64(i*64) - bit + uint64(bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// drain empties one slot: level-0 events go straight to the near heap
// (their tick equals the cursor now), upper-level events cascade through
// insert, landing on a finer level or the heap.
func (s *wheel) drain(lvl int, idx uint16) {
	l := &s.levels[lvl][idx]
	n := l.head
	l.head, l.tail = nil, nil
	s.bitmap[lvl][idx>>6] &^= 1 << (idx & 63)
	for n != nil {
		next := n.next
		n.prev, n.next = nil, nil
		s.wheelN--
		if tick := n.tick(); tick <= s.cur {
			s.heapPush(n)
		} else {
			s.toSlot(n, tick)
		}
		n = next
	}
}

// --- near heap: hand-rolled binary min-heap over (at, seq), no interface
// boxing, index-tracked for O(log n) removal on Cancel. ---

func nodeLess(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *wheel) heapPush(n *node) {
	n.where = whereNear
	n.heapIdx = int32(len(s.near))
	s.near = append(s.near, n)
	s.siftUp(len(s.near) - 1)
}

func (s *wheel) heapPop() *node {
	h := s.near
	n := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[0].heapIdx = 0
	h[last] = nil
	s.near = h[:last]
	if last > 0 {
		s.siftDown(0)
	}
	return n
}

func (s *wheel) heapRemove(i int) {
	h := s.near
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].heapIdx = int32(i)
	}
	h[last] = nil
	s.near = h[:last]
	if i != last {
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
}

func (s *wheel) siftUp(i int) {
	h := s.near
	n := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].heapIdx = int32(i)
		i = parent
	}
	h[i] = n
	n.heapIdx = int32(i)
}

// siftDown reports whether the node moved.
func (s *wheel) siftDown(i int) bool {
	h := s.near
	n := h[i]
	start := i
	size := len(h)
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		if r := child + 1; r < size && nodeLess(h[r], h[child]) {
			child = r
		}
		if !nodeLess(h[child], n) {
			break
		}
		h[i] = h[child]
		h[i].heapIdx = int32(i)
		i = child
	}
	h[i] = n
	n.heapIdx = int32(i)
	return i > start
}
