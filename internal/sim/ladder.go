package sim

import (
	"fmt"
	"math"
)

// ladderQueue is the engine's pending-event structure: a two-level
// ladder/calendar queue whose near tier is a sorted run.
//
// Structure:
//
//   - The "near" tier holds every event below the nearEnd boundary and
//     feeds pops directly. It is one run sorted by (time, seq), so a pop
//     advances the run's start and a push is a short insertion from the
//     back (see runInsert).
//   - Flat state: a reset QueueAuto queue has nearEnd = +Inf, so every
//     push lands in the near tier, which then is the whole queue — the
//     fastest structure at the paper's small pending counts. The first
//     push that takes the near tier past spreadAt spreads it: every near
//     event moves into over and nearEnd drops to 0, after which the
//     tiers below run. A flat run therefore never holds more than
//     promoteThreshold+1 events.
//   - Once spread, the near tier stays small (a transfer batch plus
//     stragglers), so its insertions touch a few cache lines. Only a
//     bucket the ladder cannot separate — at ladderMaxRungs depth, or
//     of zero width — transfers more than ladderSpreadMax events at
//     once, and then the run simply grows.
//   - Bucketed "rungs" hold the near-to-mid future: rung buckets are
//     unsorted block chains, so scheduling into them is a bounds
//     computation plus an append — O(1), no comparisons, no sifting.
//     When the near tier drains, the next non-empty bucket of the
//     deepest rung is either moved wholesale into the near tier (small
//     buckets) or spread across a new, finer rung (crowded buckets) —
//     sorting work is deferred until the simulation clock actually
//     approaches the events, and is amortized O(1) per event.
//   - An unsorted "over" tier, a block chain like a bucket's, catches
//     everything beyond the last rung. When the rungs drain, over is
//     re-bucketed across a fresh rung spanning its actual [min, max]
//     time range, with the bucket count scaled to the population (the
//     calendar-queue "resize with n" rule, applied lazily) so transfer
//     batches stay small and cache-resident at any scale.
//
// Determinism: the only ordering decisions are the near tier's (time,
// seq) comparisons. Equal-time events always meet in the same bucket
// (bucket membership is a pure function of time) or are separated only
// in push order (later pushes carry larger seqs and strictly later
// tiers), so pops are in exactly (time, seq) order — simulation results
// are byte-identical whether and when the queue spreads.
//
// Tier invariants, maintained by every operation:
//
//  1. Every event in a rung or in over has time >= nearEnd, and every
//     event in near entered with time < the nearEnd in force afterwards
//     (so near's minimum is the global minimum whenever near is
//     non-empty).
//  2. Rung ranges are contiguous and ascending from the deepest rung:
//     rungs[len-1] covers times up to its endT, each shallower rung
//     covers times from the deeper rung's endT, and over holds times at
//     or beyond the shallowest (oldest) rung's endT.
//  3. nearEnd never decreases within a run, except at the spread,
//     which first empties near into over.
//
// Floating-point rigor: each rung precomputes a monotone boundary array
// (bounds[b] is bucket b's inclusive lower edge) and an exclusive upper
// bound endT. Bucket membership is corrected against bounds, push
// routing compares against endT, and nearEnd advances to
// min(bounds[b+1], endT) — every comparison uses values from the same
// monotone array, so the invariants hold exactly, not just up to
// rounding, no matter how the reciprocal-multiply index estimate rounds.
//
// The queue keeps no per-event location index: cancellation is by
// tombstone at the engine layer, so events only ever leave a tier from
// its consumption point. Moving an event between tiers touches nothing
// but the 24-byte records themselves, which carry everything needed to
// fire them.
//
// Block storage: every rung's buckets and the over tier share one pool
// of fixed-size blocks (ladderBlock events each). A bucket, or over, is
// a chain of pool blocks and keeps a slice window onto its tail block,
// so appending is a plain slice append with one extra branch to chain
// a pool block when the window is full. An empty bucket holds no
// block: its first push chains one, and consuming it returns its whole
// chain to the pool in one splice. A rebuild returns each over block
// once it has scattered the block's events. Blocks are therefore held
// only while they hold events, and retained storage is the number of
// blocks ever in use at once: it follows the pending set, not the
// number of bucket records or the run's length. Per-bucket slices would
// instead each keep their own peak capacity for the life of the queue:
// at 65536 nodes the long-lived top rung retained sixteen times the
// pending set that way.
type ladderQueue struct {
	// The near tier: run is a window onto buf sorted by (time, seq).
	run     []event
	buf     []event
	nearEnd float64 // far events are all >= nearEnd

	// spreadAt is the near-tier length past which a push spreads a
	// flat queue (math.MaxInt once spread); spreads counts spreads
	// since the last reset.
	spreadAt int
	spreads  uint64

	rungs []ladderRung // rungs[len-1] is the deepest (soonest, finest)

	// over is the unsorted far-far tier, a block chain like a bucket's;
	// overMin and overMax bound its times (+Inf and -Inf while it is
	// empty, so a push needs no emptiness test).
	over    bucket
	overMin float64
	overMax float64

	// chunks is the block pool: block k is the k mod ladderChunk'th
	// ladderBlock-event run of chunks[k/ladderChunk]. Chunks never
	// move once allocated, so bucket windows stay valid as the pool
	// grows. link[k] is the block after k in its chain, or in the free
	// list when k is free; free heads the free list (-1 when empty).
	chunks [][]event
	link   []int32
	free   int32
}

const (
	// ladderBucketTarget is the bucket occupancy a rebuild aims for: the
	// over tier is spread across ~len(over)/target buckets, so transfer
	// batches into the near tier stay small no matter how large the
	// pending set grows.
	ladderBucketTarget = 16
	// ladderMinBuckets / ladderMaxBuckets bound a rung's bucket count:
	// at least enough spread to be worth bucketing at all, at most a
	// bounded bucket-record array so empty-bucket scans stay cheap.
	ladderMinBuckets = 128
	ladderMaxBuckets = 16384
	// ladderSpreadBuckets is the bucket count used when re-spreading one
	// crowded bucket across a finer rung.
	ladderSpreadBuckets = 128
	// ladderSpreadMax is the bucket size above which a bucket is spread
	// across a finer rung instead of being pushed into the near tier.
	ladderSpreadMax = 48
	// ladderMaxRungs bounds the refinement depth; a bucket at the
	// bottom is pushed to the near tier regardless of size.
	ladderMaxRungs = 8
	// ladderBlock is the storage block size in events (384 bytes): a
	// bucket at the rebuild target fills one block, and a part-filled
	// tail wastes at most ladderBlock-1 entries.
	ladderBlock = 16
	// ladderChunk is the number of blocks the pool allocates at once
	// (24 KiB chunks).
	ladderChunkShift = 6
	ladderChunk      = 1 << ladderChunkShift
)

// bucket is one rung bucket, or the over tier: a chain of pool blocks
// from head to tail, every block but the tail full. cur is the window
// onto the tail block: its events, with capacity up to the block's
// end. An empty bucket is the zero value: it holds no block, cur is
// nil, and head and tail are meaningless (equal, so a walk from head
// to tail visits nothing).
type bucket struct {
	cur        []event
	head, tail int32
}

// ladderRung is one bucketed band of the far future. Bucket b holds
// events with bounds[b] <= time < bounds[b+1] (monotone by
// construction); endT is the rung's exclusive upper routing bound. inv
// caches 1/width so bucket selection is a multiply whose estimate is
// then corrected against bounds.
type ladderRung struct {
	start  float64
	inv    float64   // 1 / nominal bucket width
	endT   float64   // exclusive upper bound of the rung's range
	bounds []float64 // len(bkts)+1 monotone bucket edges
	cur    int       // next bucket to consume; buckets below cur are empty
	count  int       // events currently in this rung
	bkts   []bucket
}

func (q *ladderQueue) push(ev event) {
	if ev.time < q.nearEnd {
		q.runInsertNewest(ev)
		if len(q.run) > q.spreadAt {
			q.spread()
		}
		return
	}
	// Deepest rung first: rung ranges ascend toward shallower rungs. A
	// drained rung (cur past its last bucket — possible while it waits
	// to be popped, since endT can exceed its top bucket edge by a
	// rounding step) is skipped: the event lands in the next shallower
	// rung's current bucket, which is consumed next, or in over when no
	// rung can take it — both keep pops ordered, because the receiving
	// batch reaches the near tier before the clock reaches the event.
	for j := len(q.rungs) - 1; j >= 0; j-- {
		r := &q.rungs[j]
		if ev.time < r.endT && r.cur < len(r.bkts) {
			q.pushRung(int32(j), ev)
			return
		}
	}
	q.pushOver(ev)
}

// spread turns the flat queue into a ladder: every near event moves
// into over, which the next refill re-buckets into a rung sized to the
// population. No event is left in near, so lowering nearEnd below
// their times keeps invariant 1.
func (q *ladderQueue) spread() {
	for _, ev := range q.run {
		q.pushOver(ev)
	}
	q.run = q.buf[:0]
	q.nearEnd, q.spreadAt = 0, math.MaxInt
	q.spreads++
}

// pushRung appends ev to the bucket of rung j whose bounds contain its
// time.
func (q *ladderQueue) pushRung(j int32, ev event) {
	r := &q.rungs[j]
	nb := int32(len(r.bkts))
	b := int32((ev.time - r.start) * r.inv)
	if b > nb-1 {
		b = nb - 1
	}
	if b < int32(r.cur) {
		b = int32(r.cur)
	}
	// Correct the estimate against the monotone bounds; at most a step
	// or two. An event below bucket r.cur's edge (possible when nearEnd
	// was capped by a finer rung's endT) stays in r.cur: that bucket is
	// consumed next, so early delivery there is always ordered.
	for b > int32(r.cur) && ev.time < r.bounds[b] {
		b--
	}
	for b < nb-1 && ev.time >= r.bounds[b+1] {
		b++
	}
	bk := &r.bkts[b]
	if len(bk.cur) == cap(bk.cur) {
		q.chain(bk)
	}
	bk.cur = append(bk.cur, ev)
	r.count++
}

// chain links a free pool block behind bk's full tail block, or makes
// it an empty bucket's first block, and moves the window onto it.
func (q *ladderQueue) chain(bk *bucket) {
	blk := q.free
	if blk >= 0 {
		q.free = q.link[blk]
	} else {
		blk = q.carveBlock()
	}
	if bk.cur == nil {
		bk.head = blk
	} else {
		q.link[bk.tail] = blk
	}
	bk.tail = blk
	bk.cur = q.block(blk)[:0]
}

// carveBlock adds a block to the pool, allocating a new chunk when the
// last one is used up: the pool only allocates past its high-water
// mark.
func (q *ladderQueue) carveBlock() int32 {
	blk := int32(len(q.link))
	if int(blk)>>ladderChunkShift == len(q.chunks) {
		q.chunks = append(q.chunks, make([]event, ladderChunk*ladderBlock))
	}
	q.link = append(q.link, -1)
	return blk
}

// block returns pool block blk's storage.
func (q *ladderQueue) block(blk int32) []event {
	off := int(blk&(ladderChunk-1)) * ladderBlock
	return q.chunks[blk>>ladderChunkShift][off : off+ladderBlock : off+ladderBlock]
}

// bucketLen counts bk's events.
func (q *ladderQueue) bucketLen(bk *bucket) int {
	n := len(bk.cur)
	for blk := bk.head; blk != bk.tail; blk = q.link[blk] {
		n += ladderBlock
	}
	return n
}

// empty drops bk's events: its whole chain goes back to the free list
// in one splice, and bk holds no block.
func (q *ladderQueue) empty(bk *bucket) {
	if bk.cur != nil {
		q.link[bk.tail] = q.free
		q.free = bk.head
	}
	*bk = bucket{}
}

// pushOver appends ev to the unsorted far-far tier.
func (q *ladderQueue) pushOver(ev event) {
	if ev.time < q.overMin {
		q.overMin = ev.time
	}
	if ev.time > q.overMax {
		q.overMax = ev.time
	}
	if len(q.over.cur) == cap(q.over.cur) {
		q.chain(&q.over)
	}
	q.over.cur = append(q.over.cur, ev)
}

// advance refills the near tier from the rungs (or rebuilds the rungs
// from over), reporting whether any events remain.
func (q *ladderQueue) advance() bool {
	for len(q.rungs) > 0 {
		j := len(q.rungs) - 1
		r := &q.rungs[j]
		nb := len(r.bkts)
		for r.cur < nb && len(r.bkts[r.cur].cur) == 0 {
			r.cur++
		}
		if r.cur >= nb || r.count == 0 {
			// Rung exhausted; keep its bucket arrays for reuse.
			q.rungs = q.rungs[:j]
			continue
		}
		bk := &r.bkts[r.cur]
		size := q.bucketLen(bk)
		ns := r.bounds[r.cur]
		ne := r.endT
		// A rung's last bucket owns the whole tail of its routing range:
		// endT may sit a rounding step (or, after rebuild's Nextafter
		// bump, several representable floats) above the top bucket edge,
		// and pushRung clamps events in [bounds[nb], endT) into that
		// bucket. The consumption boundary must therefore be endT, not
		// bounds[nb] — otherwise nearEnd stops below times the near tier
		// already holds, and a later push into the sliver routes to a
		// strictly later tier and pops out of order.
		if v := r.bounds[r.cur+1]; r.cur+1 < nb && v < ne {
			ne = v
		}
		nw := (ne - ns) / ladderSpreadBuckets
		if size <= ladderSpreadMax || len(q.rungs) >= ladderMaxRungs || !(nw > 0) || ns+nw == ns {
			// Transfer the bucket into the near tier; its upper bound
			// becomes the new near/far boundary. The width guards stop
			// the refinement once a finer rung could no longer separate
			// times (equal-time or denormal-width buckets); such an
			// oversized batch lengthens the run.
			for blk := bk.head; blk != bk.tail; blk = q.link[blk] {
				for _, ev := range q.block(blk) {
					q.runInsert(ev)
				}
			}
			for _, ev := range bk.cur {
				q.runInsert(ev)
			}
			q.empty(bk)
			r.count -= size
			q.nearEnd = ne
			r.cur++
			return true
		}
		// Crowded bucket: spread it across a finer rung and try again.
		// The child's endT is the parent bucket's own upper edge, so the
		// contiguity invariant is exact by construction.
		nr := q.growRung(ladderSpreadBuckets)
		nr.init(ns, nw, ne)
		r = &q.rungs[j] // growRung may have reallocated q.rungs
		bk = &r.bkts[r.cur]
		src := *bk
		*bk = bucket{}
		q.scatter(src, int32(len(q.rungs)-1))
		r.count -= size
		r.cur++
	}
	return q.rebuild()
}

// growRung appends a rung with the given bucket count (reusing a
// previously allocated rung's bucket and bounds arrays when available)
// and returns it with count/cur zeroed. Its buckets are empty, and so
// hold no block: a rung is only popped once drained, reset empties the
// live ones, and new bucket records start at the zero value. The
// caller must init it.
func (q *ladderQueue) growRung(buckets int) *ladderRung {
	n := len(q.rungs)
	if n < cap(q.rungs) {
		q.rungs = q.rungs[:n+1]
	} else {
		q.rungs = append(q.rungs, ladderRung{})
	}
	r := &q.rungs[n]
	r.cur, r.count = 0, 0
	if cap(r.bkts) < buckets {
		r.bkts = make([]bucket, buckets)
	} else {
		r.bkts = r.bkts[:buckets]
	}
	return r
}

// init fixes the rung's range [start, endT) and builds the monotone
// bucket-edge array from the nominal width.
func (r *ladderRung) init(start, width, endT float64) {
	nb := len(r.bkts)
	r.start = start
	r.inv = 1 / width
	r.endT = endT
	if cap(r.bounds) < nb+1 {
		r.bounds = make([]float64, nb+1)
	} else {
		r.bounds = r.bounds[:nb+1]
	}
	prev := start
	r.bounds[0] = start
	for i := 1; i <= nb; i++ {
		v := start + float64(i)*width
		if v < prev {
			v = prev // enforce monotonicity under rounding
		}
		r.bounds[i] = v
		prev = v
	}
}

// rebuild turns the over tier into a fresh rung spanning its actual time
// range (or moves it straight to near when it is small or degenerate),
// with the bucket count scaled to the population. Each over block goes
// back to the pool once its events are scattered, so the rung's
// buckets reuse them. Reports whether any events remain.
func (q *ladderQueue) rebuild() bool {
	n := q.bucketLen(&q.over)
	if n == 0 {
		return false
	}
	over, lo, hi := q.over, q.overMin, q.overMax
	q.clearOver()
	buckets := ladderMinBuckets
	for buckets < ladderMaxBuckets && buckets*ladderBucketTarget < n {
		buckets *= 2
	}
	width := (hi - lo) / float64(buckets)
	if n <= ladderSpreadMax || !(width > 0) || lo+width == lo {
		for blk := over.head; blk != over.tail; blk = q.link[blk] {
			for _, ev := range q.block(blk) {
				q.runInsert(ev)
			}
		}
		for _, ev := range over.cur {
			q.runInsert(ev)
		}
		q.empty(&over)
		// Later same-time pushes route to over (time >= nearEnd) with
		// larger seqs and pop after the near tier drains — still FIFO.
		q.nearEnd = hi
		return true
	}
	// endT must lie strictly beyond every held event so the top bucket's
	// membership stays inside the rung's routing range.
	end := lo + width*float64(buckets)
	if end <= hi {
		end = math.Nextafter(hi, math.Inf(1))
	}
	r := q.growRung(buckets)
	r.init(lo, width, end)
	q.scatter(over, int32(len(q.rungs)-1))
	return true
}

// scatter pushes the events of src, a non-empty chain no bucket owns
// any more, into rung j. Each of src's blocks goes back to the pool
// once its events are read, so the rung's buckets reuse them.
func (q *ladderQueue) scatter(src bucket, j int32) {
	for blk := src.head; ; {
		evs, next := src.cur, int32(-1)
		if blk != src.tail {
			evs, next = q.block(blk), q.link[blk]
		}
		for _, ev := range evs {
			q.pushRung(j, ev)
		}
		// Read, so free: later pushes in this loop may chain it.
		q.link[blk] = q.free
		q.free = blk
		if next < 0 {
			return
		}
		blk = next
	}
}

// clearOver empties the over tier's record without touching its
// blocks, which the caller returns to the pool.
func (q *ladderQueue) clearOver() {
	q.over = bucket{}
	q.overMin, q.overMax = math.Inf(1), math.Inf(-1)
}

// reset drops all events, keeping every tier's capacity: each bucket
// and over return their chains to the pool.
// Events hold no pointers, so truncation is enough. The queue restarts
// in kind's initial shape: flat and due to spread under QueueAuto,
// spread under QueueLadder. An unknown kind panics.
func (q *ladderQueue) reset(kind QueueKind) {
	q.run = q.buf[:0]
	q.spreads = 0
	switch kind {
	case QueueAuto:
		q.nearEnd, q.spreadAt = math.Inf(1), promoteThreshold
	case QueueLadder:
		q.nearEnd, q.spreadAt = 0, math.MaxInt
	default:
		panic(fmt.Sprintf("sim: unknown queue kind %q", kind))
	}
	for i := range q.rungs {
		for b := range q.rungs[i].bkts {
			q.empty(&q.rungs[i].bkts[b])
		}
	}
	q.rungs = q.rungs[:0]
	q.empty(&q.over)
	q.clearOver()
}

// runInsert inserts ev into the run, scanning from the back: later
// records shift one slot up, which at the paper's pending counts is a
// few 24-byte moves.
func (q *ladderQueue) runInsert(ev event) {
	r := q.runExtend()
	i := len(r) - 1
	for ; i > 0 && before(&ev, &r[i-1]); i-- {
		r[i] = r[i-1]
	}
	r[i] = ev
}

// runInsertNewest is runInsert for an event the engine has just issued:
// its seq is the largest yet, so it goes after every record at its
// time, and the scan compares times only.
func (q *ladderQueue) runInsertNewest(ev event) {
	r := q.runExtend()
	i := len(r) - 1
	for ; i > 0 && ev.time < r[i-1].time; i-- {
		r[i] = r[i-1]
	}
	r[i] = ev
}

// runExtend lengthens the run by one slot at its back and returns it.
func (q *ladderQueue) runExtend() []event {
	if len(q.run) == cap(q.run) {
		q.compact()
	}
	q.run = q.run[:len(q.run)+1]
	return q.run
}

// compact moves the run, whose window has reached the end of buf, to
// the front of buf. buf first grows, doubling, to at least twice the
// run's length, so the window advances at least as many pops between
// copies as the run holds records while buf stays sized to the run's
// high-water mark. Callers add one record next.
func (q *ladderQueue) compact() {
	n := len(q.run)
	if want := 2 * (n + 1); len(q.buf) < want {
		q.buf = make([]event, max(2*len(q.buf), want))
	}
	copy(q.buf, q.run)
	q.run = q.buf[:n]
}

// fill refills the empty run from the tiers below it and reports
// whether any events remain. An advance that transfers events puts
// them in the run; one that only rebuilds a rung transfers nothing yet.
func (q *ladderQueue) fill() bool {
	for len(q.run) == 0 {
		if !q.advance() {
			return false
		}
	}
	return true
}
