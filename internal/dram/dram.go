// Package dram is a multi-channel DDR timing simulator in the spirit
// of Ramulator (paper §IV-A): per-bank row-buffer state, tRCD/tRP/tCL/
// tRAS timing constraints, FR-FCFS scheduling within a bounded request
// window, burst-granular data transfer on a 64-bit bus per channel,
// and periodic refresh. It consumes the access traces produced by the
// memory-protection simulator and reports total cycles and per-channel
// utilization — the quantity behind the paper's Fig. 6 performance
// comparison.
//
// The model is calibrated by bus bandwidth rather than a named DDR
// part: Table II specifies aggregate bandwidth (20 GB/s server,
// 10 GB/s edge) over four 64-bit channels, so each channel's burst
// timing is derived from its share of the aggregate.
//
// The hot path is zero-copy, decode-once and queue-free: traces are
// consumed as trace.Access values directly and exploded into exact-size
// per-channel *span* queues — run-length-encoded stretches of bursts
// sharing (issue, bank, row), counted in a pre-pass so the fill never
// reallocates. Bank and row are decoded once per row span rather than
// once per burst (the burst-interleaved mapping keeps them constant
// for channels × burstsPerRow consecutive bursts), and the scheduler
// expands spans lazily into a WindowSize ring, so the per-burst queue
// the seed materialized — gigabytes of request structs on a full sweep
// — never exists. Within drainChannel a run step consumes a stream of
// row hits in one go: when the window head is an issued request for
// its bank's open row, it counts the same-row bursts behind it and
// takes, in closed form, as many as the per-burst scheduler would pick
// back to back — each starting max(TBurst, TCL) after the last, until
// the stream ends, a refresh or cancellation poll falls due, or (while
// the bank is still busy) another bank could offer a row hit. The
// picks it leaves resolve one burst at a time: the window head when it
// is an issued row hit on a ready bank, else the "oldest ready row
// hit, else oldest ready, else time-jump" decision from per-bank
// candidate caches, so the window is not rescanned per burst. The
// drain is bit-identical to the per-burst scheduler, which the tests
// keep as an oracle (TestFRFCFSGoldenPickOrder pins the pick order,
// and a differential test and a fuzz target compare Stats). Span
// buffers are recycled across runs — within one simulator, or across
// the several simulators of a workload sweep via a shared Arena.
// RunOverlayCtx consumes a protection scheme's spine+overlay stream
// pair merged in anchor order, so the scheme-independent data stream
// is never duplicated per scheme. Channels are fully independent after
// the explode step and drain one after another on the calling
// goroutine; the package starts no goroutines. Parallelism belongs to
// the caller (seda runs one workload per worker of its suite pool), and
// one Arena may serve simulators that drain concurrently.
package dram

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Config describes the memory system geometry and timing (in memory
// controller cycles).
type Config struct {
	Channels     int
	BanksPerChan int
	RowBytes     int // row-buffer size per bank
	BurstBytes   int // bytes transferred per burst (BL8 x 64-bit = 64B)

	// Timing in controller cycles.
	TBurst uint64 // data transfer time of one burst on the bus
	TCL    uint64 // column access (CAS) latency
	TRCD   uint64 // activate-to-read
	TRP    uint64 // precharge
	TRAS   uint64 // minimum row-open time
	TRefi  uint64 // refresh interval (0 = disabled)
	TRfc   uint64 // refresh duration

	// WindowSize bounds the FR-FCFS reorder window per channel.
	WindowSize int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChan <= 0 || c.RowBytes <= 0 || c.BurstBytes <= 0 {
		return fmt.Errorf("dram: non-positive geometry %+v", c)
	}
	if c.TBurst == 0 {
		return fmt.Errorf("dram: zero burst time")
	}
	if c.WindowSize <= 0 {
		return fmt.Errorf("dram: window size %d <= 0", c.WindowSize)
	}
	if c.RowBytes < c.BurstBytes {
		return fmt.Errorf("dram: row size %d below burst size %d", c.RowBytes, c.BurstBytes)
	}
	if c.TRefi > 0 && c.TRfc >= c.TRefi {
		// Each refresh stalls TRfc but schedules the next only TRefi
		// later, so the drain would refresh forever.
		return fmt.Errorf("dram: refresh duration %d not below refresh interval %d", c.TRfc, c.TRefi)
	}
	return nil
}

// DDR4Like returns a timing template with realistic relative latencies
// for a 64-bit channel; callers scale counts/bandwidth via the NPU
// configs.
func DDR4Like(channels int) Config {
	return Config{
		Channels:     channels,
		BanksPerChan: 16,
		RowBytes:     2048,
		BurstBytes:   64,
		TBurst:       4,
		TCL:          14,
		TRCD:         14,
		TRP:          14,
		TRAS:         32,
		TRefi:        7800,
		TRfc:         350,
		WindowSize:   32,
	}
}

// Stats reports what the memory system did with a trace.
type Stats struct {
	Cycles      uint64 // total controller cycles to drain the trace
	Reads       uint64 // burst-granular read commands
	Writes      uint64 // burst-granular write commands
	RowHits     uint64
	RowMisses   uint64 // row conflicts (precharge + activate)
	RowEmpty    uint64 // activates into an idle bank
	Refreshes   uint64
	BytesMoved  uint64
	ChanCycles  []uint64 // per-channel busy cycles
	MaxChanBusy uint64
}

// request is one burst, fully decoded at explode time: the channel is
// implicit in which queue it lands in, and bank/row are computed once
// so the scheduler's inner loop never touches an address again. The
// read/write distinction is not stored — the timing model charges
// reads and writes identically, and the Stats totals are counted in
// the explode's first pass.
type request struct {
	issue uint64 // earliest schedulable cycle
	row   int64
	bank  int32
}

// span is a run-length-encoded stretch of a channel's burst queue:
// count consecutive bursts with identical (issue, bank, row). Under
// the burst-interleaved address mapping a contiguous access keeps
// (bank, row) constant for channels × burstsPerRow consecutive global
// bursts, so a multi-kilobyte tensor run collapses to one span per
// channel per row crossed instead of one queue entry per burst. The
// scheduler expands spans into its bounded reorder window on demand —
// the full per-burst queue is never materialized.
type span struct {
	issue uint64
	row   int64
	bank  int32
	count int32
}

type bank struct {
	openRow  int64 // -1 = closed
	readyAt  uint64
	activeAt uint64 // when the current row was activated (for tRAS)
}

// Sentinels for channel.hits, the per-bank open-row candidate cache.
const (
	hitNone  int32 = -1 // no in-window request targets the bank's open row
	hitStale int32 = -2 // candidate unknown; rescan the window on next use
)

// pollCycles is the simulated-cycle interval between cancellation
// polls in drainChannel. Picks advance the clock by at least TBurst,
// so 4M cycles bounds the poll gap at ~1–2M picks — sub-millisecond
// wall time — while keeping the poll off the per-pick path entirely
// (it shares the refresh check's compare; see drainChannel).
const pollCycles = 1 << 22

type channel struct {
	banks []bank
	// hits[b] is the lowest in-window queue slot holding a request for
	// bank b's currently open row (or a sentinel). It is maintained
	// incrementally as requests enter the window, are picked, or change
	// the open row, so the FR-FCFS "oldest ready row hit" is found by
	// scanning banks instead of rescanning the window.
	hits    []int32
	busFree uint64 // next cycle the data bus is free
	busy    uint64 // accumulated busy cycles
	// spans is the run-length-encoded burst queue; total is the burst
	// count it expands to. window is the scheduler's ring buffer
	// (power-of-two capacity >= WindowSize), holding the expanded
	// requests of queue slots [head, win) at index slot&(cap-1).
	spans    []span
	total    int
	window   []request
	nextRef  uint64
	refCount uint64
}

// chanResult is one channel's contribution to Stats, merged into the
// run's Stats as soon as the channel finishes draining.
type chanResult struct {
	rowHits   uint64
	rowMisses uint64
	rowEmpty  uint64
	busy      uint64
	refreshes uint64
	done      uint64 // cycle the channel's last burst finishes
	aborted   bool   // drain stopped early on context cancellation
}

// runState is the per-run scratch memory: channel structs with their
// bank arrays, span queues and window rings, plus the per-channel fill
// cursors.
// States are recycled through Simulator.pool so steady-state drains
// allocate only the returned ChanCycles slice.
type runState struct {
	chans   []channel
	cursors []int
}

// Arena is a shared pool of per-run scratch states that several
// Simulators with the same geometry can draw from. The six protection
// schemes of one workload each build their own Simulator but run over
// traces of comparable size; pointing them at one Arena lets a span
// buffer warmed by one scheme be reused by the next instead of every
// scheme growing a private set, cutting peak RSS on wide sweeps.
// Arena is safe for concurrent use.
type Arena struct {
	pool sync.Pool // *runState
}

// NewArena builds an empty shared state pool.
func NewArena() *Arena { return &Arena{} }

// decoder holds the burst-interleaved address mapping: a byte address
// maps to a global burst index, whose channel is burst mod channels
// and whose (bank, row) come from the row-global index burst /
// (channels × burstsPerRow) as rowGlobal mod banks and rowGlobal /
// banks. The explode passes apply the division form once per row
// span; the per-access burst index takes a shift when the burst size
// is a power of two (DDR4Like's always is).
type decoder struct {
	pow2       bool // burstBytes is a power of two
	burstShift uint

	burstBytes   uint64
	channels     uint64
	burstsPerRow uint64
	banks        uint64
}

func newDecoder(c Config) decoder {
	d := decoder{
		burstBytes:   uint64(c.BurstBytes),
		channels:     uint64(c.Channels),
		burstsPerRow: uint64(c.RowBytes / c.BurstBytes),
		banks:        uint64(c.BanksPerChan),
	}
	if bits.OnesCount64(d.burstBytes) == 1 {
		d.pow2 = true
		d.burstShift = uint(bits.TrailingZeros64(d.burstBytes))
	}
	return d
}

// burst returns the global burst index of a byte address.
func (d *decoder) burst(addr uint64) uint64 {
	if d.pow2 {
		return addr >> d.burstShift
	}
	return addr / d.burstBytes
}

// Simulator drains traces through the memory system.
type Simulator struct {
	cfg   Config
	dec   decoder
	arena *Arena    // shared scratch pool, if set
	pool  sync.Pool // private *runState pool otherwise
}

// New builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg, dec: newDecoder(cfg)}, nil
}

// Config returns the configuration.
func (s *Simulator) Config() Config { return s.cfg }

// SetSequentialDrain does nothing: channels always drain one after
// another on the calling goroutine.
//
// Deprecated: there is no parallel drain left to switch off. The
// method stays only so existing callers keep compiling.
func (s *Simulator) SetSequentialDrain(bool) {}

// SetArena points the simulator at a shared scratch pool. Simulators
// sharing an arena should have the same geometry; a pooled state whose
// geometry does not match the configuration is discarded and rebuilt,
// so mixing geometries is safe but defeats the reuse.
func (s *Simulator) SetArena(a *Arena) { s.arena = a }

// statePool returns the pool run states are drawn from and returned to.
func (s *Simulator) statePool() *sync.Pool {
	if s.arena != nil {
		return &s.arena.pool
	}
	return &s.pool
}

// windowCap returns the scheduler ring capacity: the smallest power of
// two holding WindowSize requests, so ring indexing is a mask instead
// of a modulo.
func (s *Simulator) windowCap() int {
	c := 1
	for c < s.cfg.WindowSize {
		c <<= 1
	}
	return c
}

// getState fetches (or builds) a runState sized for the configuration
// and resets the parts a previous run dirtied. Span buffers keep
// their capacity across runs, so per-layer traces of similar size
// explode without reallocating.
func (s *Simulator) getState() *runState {
	if v := s.statePool().Get(); v != nil {
		st := v.(*runState)
		if len(st.chans) != s.cfg.Channels ||
			(len(st.chans) > 0 && (len(st.chans[0].banks) != s.cfg.BanksPerChan ||
				len(st.chans[0].window) != s.windowCap())) {
			// Arena shared across mismatched geometries: rebuild below.
			st = nil
		}
		if st != nil {
			for i := range st.chans {
				ch := &st.chans[i]
				for j := range ch.banks {
					ch.banks[j] = bank{openRow: -1}
					ch.hits[j] = hitNone
				}
				ch.busFree = 0
				ch.busy = 0
				ch.spans = ch.spans[:0]
				ch.total = 0
				ch.nextRef = s.cfg.TRefi
				ch.refCount = 0
				st.cursors[i] = 0
			}
			return st
		}
	}
	st := &runState{
		chans:   make([]channel, s.cfg.Channels),
		cursors: make([]int, s.cfg.Channels),
	}
	for i := range st.chans {
		banks := make([]bank, s.cfg.BanksPerChan)
		hits := make([]int32, s.cfg.BanksPerChan)
		for j := range banks {
			banks[j].openRow = -1 // all banks closed until first activate
			hits[j] = hitNone
		}
		st.chans[i].banks = banks
		st.chans[i].hits = hits
		st.chans[i].window = make([]request, s.windowCap())
		st.chans[i].nextRef = s.cfg.TRefi
	}
	return st
}

// bursts returns how many bursts an access occupies.
func (s *Simulator) bursts(bytes uint32) int {
	n := int(bytes+uint32(s.cfg.BurstBytes)-1) / s.cfg.BurstBytes
	if n == 0 {
		n = 1
	}
	return n
}

// RunOverlayCtx drains the merge of a shared data spine and a scheme's
// overlay deltas, interleaved in anchor order, without materializing
// the combined trace: both explode passes walk the two streams in
// place. Stats are bit-identical to a drain of the materialized merge
// (see TestRunOverlayMatchesMaterialized); a nil overlay drains the
// spine alone.
//
// Each access is split into bursts, distributed to exact-size
// per-channel queues (burst counts are computed in a pre-pass so the
// fill never reallocates), and each channel is scheduled FR-FCFS (row
// hits first within the window, else oldest). The drain checks ctx
// cooperatively (between explode passes, and every pollCycles of
// simulated time inside each channel) and abandons the run, returning
// ctx.Err(), once it is cancelled. A cancelled run's Stats are
// meaningless and must not be used.
func (s *Simulator) RunOverlayCtx(ctx context.Context, spine *trace.Trace, deltas *trace.Overlay) (Stats, error) {
	return s.run(ctx, func(yield func(*trace.Access)) {
		trace.ForEachMerged(spine, deltas, yield)
	}, (*Simulator).drainChannel)
}

// drainFunc schedules one exploded channel: drainChannel, or in the
// tests the per-burst oracle it must agree with.
type drainFunc func(*Simulator, *channel, <-chan struct{}) chanResult

// run drains whatever access stream iter yields (twice: a counting
// pass and a fill pass — iter must replay identically). Cancellation
// is checked between the explode passes and periodically inside each
// channel drain; an uncancellable context (Done() == nil, e.g.
// context.Background) adds no work to the hot loop beyond one nil
// compare per check. drain schedules each channel.
func (s *Simulator) run(ctx context.Context, iter func(yield func(*trace.Access)), drain drainFunc) (Stats, error) {
	// One span per drain, opened before the explode passes: the span
	// machinery must stay out of the per-pick loops (an earlier
	// per-pick ctx poll cost ~20% on BenchmarkRunTrace; see PR 6).
	osp := obs.StartChild(ctx, obs.StageDRAMDrain)
	defer osp.End()
	st := Stats{ChanCycles: make([]uint64, s.cfg.Channels)}
	rs := s.getState()
	defer s.statePool().Put(rs)
	chans := rs.chans
	nchan := uint64(s.cfg.Channels)
	done := ctx.Done()

	// Pass 1: count span entries and bursts per channel (and the global
	// read/write/byte totals, which depend only on burst counts). An
	// access's bursts round-robin the channels starting at its first
	// burst's channel, while (bank, row) stays constant across a *row
	// span* of channels × burstsPerRow consecutive global bursts — so
	// the queue is sized in spans, one entry per channel per row span
	// touched, and each channel's burst total accumulates separately.
	// The divisions below are the decoder's mapping (see decoder).
	spanBursts := s.dec.channels * s.dec.burstsPerRow
	var total int
	iter(func(a *trace.Access) {
		n := s.bursts(a.Bytes)
		total += n
		st.BytesMoved += uint64(n) * uint64(s.cfg.BurstBytes)
		if a.Kind == trace.Write {
			st.Writes += uint64(n)
		} else {
			st.Reads += uint64(n)
		}
		b := s.dec.burst(a.Addr)
		end := b + uint64(n)
		for b < end {
			spanEnd := (b/spanBursts + 1) * spanBursts
			if spanEnd > end {
				spanEnd = end
			}
			count := spanEnd - b
			if count < nchan {
				for i := b; i < spanEnd; i++ {
					c := i % nchan
					rs.cursors[c]++
					chans[c].total++
				}
			} else {
				c0 := b % nchan
				per := count / nchan
				rem := count % nchan
				for c := uint64(0); c < nchan; c++ {
					k := per
					if (c+nchan-c0)%nchan < rem {
						k++
					}
					if k > 0 {
						rs.cursors[c]++
						chans[c].total += int(k)
					}
				}
			}
			b = spanEnd
		}
	})
	if total == 0 {
		return st, ctx.Err()
	}
	if done != nil {
		if err := ctx.Err(); err != nil {
			return Stats{}, err
		}
	}

	// Allocate exact-size span queues (reusing pooled buffers) and
	// reset the cursors for the fill pass.
	for c := range chans {
		cnt := rs.cursors[c]
		if cap(chans[c].spans) < cnt {
			chans[c].spans = make([]span, cnt)
		} else {
			chans[c].spans = chans[c].spans[:cnt]
		}
		rs.cursors[c] = 0
	}

	// Pass 2: fill, decoding bank and row once per row span instead of
	// once per burst, and appending one run-length-encoded span entry
	// per channel instead of per-burst queue slots. The expanded
	// per-channel burst sequence — what the scheduler consumes through
	// its ring window — is bit-identical to the per-burst explode this
	// replaces: within a span every request is the same value, and
	// spans (and accesses) fill in burst order.
	//
	// The span-partition and round-robin arithmetic below deliberately
	// mirrors pass 1 line for line (a shared helper would put an
	// indirect call in the hottest loop of the repo): any edit to one
	// pass must be made to both, and a desync fails loudly — the
	// cursors index past the counted span slice on the first trace the
	// tests explode.
	iter(func(a *trace.Access) {
		b := s.dec.burst(a.Addr)
		end := b + uint64(s.bursts(a.Bytes))
		for b < end {
			rowGlobal := b / spanBursts
			sp := span{
				issue: a.Cycle,
				row:   int64(rowGlobal / s.dec.banks),
				bank:  int32(rowGlobal % s.dec.banks),
				count: 1,
			}
			spanEnd := (rowGlobal + 1) * spanBursts
			if spanEnd > end {
				spanEnd = end
			}
			count := spanEnd - b
			if count < nchan {
				// Short span (metadata-line accesses): one burst per
				// channel at most.
				for i := b; i < spanEnd; i++ {
					c := i % nchan
					chans[c].spans[rs.cursors[c]] = sp
					rs.cursors[c]++
				}
			} else {
				c0 := b % nchan
				per := count / nchan
				rem := count % nchan
				for c := uint64(0); c < nchan; c++ {
					k := per
					if (c+nchan-c0)%nchan < rem {
						k++
					}
					if k > 0 {
						sp.count = int32(k)
						chans[c].spans[rs.cursors[c]] = sp
						rs.cursors[c]++
					}
				}
			}
			b = spanEnd
		}
	})

	// Drain the channels in index order, merging each one's statistics
	// as it finishes. Channels share no state after the explode, and
	// every field is a sum or max of per-channel values.
	for ci := range chans {
		r := drain(s, &chans[ci], done)
		if r.aborted {
			return Stats{}, ctx.Err()
		}
		st.ChanCycles[ci] = r.busy
		if r.busy > st.MaxChanBusy {
			st.MaxChanBusy = r.busy
		}
		if r.done > st.Cycles {
			st.Cycles = r.done
		}
		st.RowHits += r.rowHits
		st.RowMisses += r.rowMisses
		st.RowEmpty += r.rowEmpty
		st.Refreshes += r.refreshes
	}
	return st, nil
}

// rescanHits recomputes a bank's open-row candidate: the lowest window
// slot holding a request for (bank b, row). Called lazily when the
// cached candidate goes stale — at most one bank per pick dirties its
// cache, so the amortized cost per burst stays bounded by one cheap
// field-compare sweep over the ring window (no address decode).
func rescanHits(wq []request, mask, head, win int, b int32, row int64) int32 {
	for i := head; i < win; i++ {
		r := &wq[i&mask]
		if r.bank == b && r.row == row {
			return int32(i)
		}
	}
	return hitNone
}

// spanCursor expands a channel's span queue into window slots: cur is
// the request value of the span being expanded, rem its unexpanded
// burst count (0 once the queue is exhausted) and si the index of the
// next span.
type spanCursor struct {
	spans []span
	cur   request
	rem   int32
	si    int
}

// load moves the cursor to the next span, if there is one.
func (c *spanCursor) load() {
	if c.si < len(c.spans) {
		sp := &c.spans[c.si]
		c.cur = request{issue: sp.issue, row: sp.row, bank: sp.bank}
		c.rem = sp.count
		c.si++
	}
}

// next returns the next burst of the queue.
func (c *spanCursor) next() request {
	w := c.cur
	c.rem--
	if c.rem == 0 {
		c.load()
	}
	return w
}

// skip consumes n bursts of the current span; n must not exceed rem.
func (c *spanCursor) skip(n int32) {
	c.rem -= n
	if c.rem == 0 {
		c.load()
	}
}

// advance consumes m bursts without expanding them; the queue must
// hold at least m.
func (c *spanCursor) advance(m int) {
	for m > 0 {
		k := min(m, int(c.rem))
		c.skip(int32(k))
		m -= k
	}
}

// runPicks returns how many back-to-back picks of one row-hit stream,
// at most limit, fit before the cycle stop: pick 0 starts at start and
// is always taken, and pick j >= 1 is made at now_j = start + (j-1)·p
// + tBurst, which must fall before stop.
func runPicks(start, stop, tBurst, p uint64, limit int) int {
	if limit <= 1 || start+tBurst >= stop {
		return min(limit, 1)
	}
	if m := (stop - 1 - start - tBurst) / p; m < uint64(limit-1) {
		return int(m) + 2
	}
	return limit
}

// sameRun counts, up to limit, the consecutive queue slots from head
// that target (b, row) and are issued by now: the window slots first,
// then the bursts still waiting in the span queue.
func sameRun(wq []request, mask, head, win int, q *spanCursor, b int32, row int64, now uint64, limit int) int {
	k := 0
	for i := head; i < win; i++ {
		if k == limit {
			return k
		}
		if r := &wq[i&mask]; r.bank != b || r.row != row || r.issue > now {
			return k
		}
		k++
	}
	if q.rem == 0 {
		return k
	}
	if r := q.cur; r.bank != b || r.row != row || r.issue > now {
		return k
	}
	k += int(q.rem)
	for si := q.si; k < limit && si < len(q.spans); si++ {
		sp := &q.spans[si]
		if sp.bank != b || sp.row != row || sp.issue > now {
			break
		}
		k += int(sp.count)
	}
	return min(k, limit)
}

// Rule-1 bounds. The run step needs tOther, the earliest cycle at
// which FR-FCFS rule 1 can find a row hit on a bank other than the
// run's bank b: the minimum of max(issue, readyAt) over requests for
// another bank's open row. Only bank b is picked while a run lasts, so
// no other bank's open row or readyAt moves, and a request counts from
// the cycle both its issue time and its bank have arrived. Covering
// more slots than a run will see only makes the bound earlier.

// windowReady bounds tOther over the window slots [head, win).
func windowReady(banks []bank, wq []request, mask, head, win int, b int32) uint64 {
	t := ^uint64(0)
	for i := head; i < win; i++ {
		r := &wq[i&mask]
		if r.bank == b {
			continue
		}
		if bk := &banks[r.bank]; bk.openRow == r.row {
			t = min(t, max(r.issue, bk.readyAt))
		}
	}
	return t
}

// queueReady bounds tOther over the next ahead bursts of the span
// queue, the requests that enter the window while a run consumes it.
func queueReady(banks []bank, q *spanCursor, b int32, ahead int) uint64 {
	t := ^uint64(0)
	if q.rem == 0 {
		return t
	}
	if r := q.cur; r.bank != b {
		if bk := &banks[r.bank]; bk.openRow == r.row {
			t = max(r.issue, bk.readyAt)
		}
	}
	ahead -= int(q.rem)
	for si := q.si; ahead > 0 && si < len(q.spans); si++ {
		sp := &q.spans[si]
		ahead -= int(sp.count)
		if sp.bank == b {
			continue
		}
		if bk := &banks[sp.bank]; bk.openRow == sp.row {
			t = min(t, max(sp.issue, bk.readyAt))
		}
	}
	return t
}

// drainChannel schedules one channel's queue FR-FCFS and returns the
// channel's private statistics, including the cycle at which its last
// burst finishes. The queue arrives run-length encoded (channel.spans)
// and is expanded lazily into a small ring window of WindowSize
// requests: slots carry absolute queue indices [head, win) and live at
// index slot&mask, so the scheduler's state fits in the cache while
// the per-burst queue is never materialized. The selected request is
// swapped to the window head and the head advances, so removal is
// O(1).
//
// Picks resolve in three tiers. The run step consumes a whole stream
// of row hits at once: when the head is an issued request for its
// bank's open row, the per-burst scheduler would pick it and the
// same-row slots behind it back to back, each start P = max(TBurst,
// TCL) after the last, until the stream ends, a pause falls due, or
// (when the bank is not ready at a pick) another bank offers a rule-1
// row hit. The step counts those picks and advances the clock, the
// bus, the bank and the counters in closed form. Otherwise a fast
// path takes the window head outright when it is an issued row hit on
// a ready bank — the head is the lowest slot any rule can return, so
// nothing can beat it. Otherwise the FR-FCFS "oldest ready row hit"
// comes from per-bank knowledge (channel.hits): each bank caches the
// oldest in-window request targeting its open row, the caches are
// updated as requests enter the window, get picked, or flip the open
// row, and the winning candidate is the minimum slot over the ready
// banks — exactly the request the window-scanning scheduler used to
// find. The golden pick-order test pins the equivalence, and the
// per-burst drain this replaced stays in the tests as the oracle.
//
// done, when non-nil, is the run context's cancellation channel. The
// poll rides the refresh compare the loop already pays: nextPause is
// the earlier of the next refresh and the next poll cycle, so the hot
// path keeps its single uint64 compare per pick and a cancellation is
// noticed within pollCycles of simulated time (sub-millisecond wall
// time). A nil done leaves nextPoll at maxUint64 and the loop is
// instruction-identical to the uncancellable version.
func (s *Simulator) drainChannel(ch *channel, done <-chan struct{}) chanResult {
	var res chanResult
	var now uint64
	var lastDone uint64
	total := ch.total
	wq := ch.window
	mask := len(wq) - 1
	hits := ch.hits
	head := 0
	tBurst, tCL := s.cfg.TBurst, s.cfg.TCL
	period := max(tBurst, tCL)
	// candMask has bit b set iff hits[b] != hitNone, so the rule-1
	// sweep visits only banks that might contribute a candidate — on
	// bank-latency-limited streams (one active bank, its candidate
	// consumed by every pick) the sweep disappears entirely. Maintained
	// at every hits transition; usable only while the bank count fits
	// the word (always, for DDR4-like geometries).
	useCandMask := len(ch.banks) <= 64
	var candMask uint64

	q := spanCursor{spans: ch.spans}
	q.load()
	win := s.cfg.WindowSize
	if win > total {
		win = total
	}
	// Pause schedule: the loop stops for a refresh every TRefi cycles
	// and (when cancellable) for a done poll every pollCycles; both
	// funnel through one threshold so the common iteration pays exactly
	// the compare the refresh check always cost.
	const noPause = ^uint64(0)
	nextRef, nextPoll := noPause, noPause
	if s.cfg.TRefi > 0 {
		nextRef = ch.nextRef
	}
	if done != nil {
		nextPoll = pollCycles
	}
	nextPause := min(nextRef, nextPoll)
	// Banks start closed (openRow -1 matches no request), so the
	// initial window registers no candidates and hits[*] == hitNone.
	for i := 0; i < win; i++ {
		wq[i] = q.next()
	}
	for head < total {
		if now >= nextPause {
			if now >= nextPoll {
				select {
				case <-done:
					res.aborted = true
					return res
				default:
				}
				nextPoll = now + pollCycles
			}
			// Refresh stall if due.
			if now >= nextRef {
				for i := range ch.banks {
					ch.banks[i].openRow = -1
					if ch.banks[i].readyAt < now+s.cfg.TRfc {
						ch.banks[i].readyAt = now + s.cfg.TRfc
					}
					hits[i] = hitNone // no open rows, so no row-hit candidates
				}
				candMask = 0
				now += s.cfg.TRfc
				ch.busy += s.cfg.TRfc
				ch.nextRef += s.cfg.TRefi
				ch.refCount++
				nextRef = ch.nextRef
				nextPause = min(nextRef, nextPoll)
				continue
			}
			nextPause = min(nextRef, nextPoll)
		}

		// Run step: the head is an issued request for its bank's open
		// row. Pick 0 starts once the bank is ready; each later pick j
		// is made at now_j = start_{j-1} + TBurst and starts at
		// max(now_j, start_{j-1} + TCL), i.e. P after the last. A pick
		// made on a ready bank is the fast path's, unconditionally;
		// one made before the bank is ready (pick 0 when readyAt > now,
		// every later pick when TCL > TBurst) is rule 2's, and only if
		// rule 1 finds no row hit on another bank — before tOther.
		if hd := wq[head&mask]; hd.issue <= now && ch.banks[hd.bank].openRow == hd.row {
			bk := &ch.banks[hd.bank]
			start := max(now, bk.readyAt)
			n := runPicks(start, nextPause, tBurst, period, total-head)
			if n > 1 {
				n = sameRun(wq, mask, head, win, &q, hd.bank, hd.row, now, n)
			}
			if n > 1 && (bk.readyAt > now || tCL > tBurst) {
				tOther := queueReady(ch.banks, &q, hd.bank, n)
				// A clear candMask bit means the bank has no open-row
				// request in the window, so most runs skip the scan.
				if !useCandMask || candMask&^(1<<uint(hd.bank)) != 0 {
					tOther = min(tOther, windowReady(ch.banks, wq, mask, head, win, hd.bank))
				}
				if bk.readyAt > now && tOther <= now {
					n = 0
				} else if tCL > tBurst {
					n = runPicks(start, min(nextPause, tOther), tBurst, period, n)
				}
			}
			if n > 1 {
				last := start + uint64(n-1)*period
				res.rowHits += uint64(n)
				end := min(win+n, total)
				head += n
				// Run slots still in the span queue are consumed without
				// entering the ring.
				if win < head {
					q.advance(head - win)
					win = head
				}
				// Bank b's candidate is its first open-row slot left in
				// the old window, else the first to enter below; setting
				// it here spares the rule-1 sweep a full-window rescan.
				h := rescanHits(wq, mask, head, win, hd.bank, hd.row)
				hits[hd.bank] = h
				if h == hitNone {
					candMask &^= 1 << uint(hd.bank)
				}
				// Slide the window to end, registering each entering span
				// segment as its bank's candidate exactly as the
				// per-burst slide below would register its first burst.
				for win < end {
					r := q.cur
					c := min(end-win, int(q.rem))
					for i := win; i < win+c; i++ {
						wq[i&mask] = r
					}
					if hits[r.bank] == hitNone && ch.banks[r.bank].openRow == r.row {
						hits[r.bank] = int32(win)
						candMask |= 1 << uint(r.bank)
					}
					win += c
					q.skip(int32(c))
				}
				ch.busFree = max(last+tCL+tBurst, ch.busFree+uint64(n)*tBurst)
				ch.busy += uint64(n) * tBurst
				lastDone = max(lastDone, ch.busFree)
				bk.readyAt = last + tCL
				now = last + tBurst
				continue
			}
		}

		// Fast path: the window head is the lowest slot any rule can
		// return, so if it is an issued row hit on a ready bank it wins
		// rule 1 outright — no candidate across the other banks can
		// have a smaller slot, and rules 2/3 only apply when rule 1
		// finds nothing. The cached candidates of other banks are left
		// untouched: stale entries resolve lazily on their next use,
		// exactly as the slow path leaves them when a bank is skipped
		// for not being ready.
		pick := -1
		if h := &wq[head&mask]; h.issue <= now {
			if bk := &ch.banks[h.bank]; bk.openRow == h.row && bk.readyAt <= now {
				pick = head
			}
		}

		// FR-FCFS rule 1: the oldest in-window row hit whose issue time
		// has arrived, on a bank whose last access has completed. Each
		// open bank contributes its cached oldest open-row request; the
		// lowest slot across banks wins.
		if pick < 0 && (!useCandMask || candMask != 0) {
			for b := 0; b < len(ch.banks); b++ {
				if useCandMask {
					// Jump to the next candidate bank.
					m := candMask >> uint(b)
					if m == 0 {
						break
					}
					b += bits.TrailingZeros64(m)
				}
				h := hits[b]
				if h == hitNone {
					continue
				}
				bk := &ch.banks[b]
				if bk.readyAt > now {
					continue
				}
				if h == hitStale {
					h = rescanHits(wq, mask, head, win, int32(b), bk.openRow)
					hits[b] = h
					if h == hitNone {
						candMask &^= 1 << uint(b)
						continue
					}
				}
				cand := int(h)
				if wq[cand&mask].issue > now {
					// The oldest open-row request is not issued yet; the
					// rule wants the oldest *issued* one, which may sit
					// further out in the window (rare).
					cand = -1
					for i := int(h) + 1; i < win; i++ {
						r := &wq[i&mask]
						if r.bank == int32(b) && r.row == bk.openRow && r.issue <= now {
							cand = i
							break
						}
					}
					if cand < 0 {
						continue
					}
				}
				if pick < 0 || cand < pick {
					pick = cand
				}
			}
		}
		// Rule 2: the oldest ready request regardless of row state.
		if pick < 0 {
			for i := head; i < win; i++ {
				if wq[i&mask].issue <= now {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			// Nothing ready: jump to the earliest issue time in the window.
			jump := wq[head&mask].issue
			for i := head + 1; i < win; i++ {
				if v := wq[i&mask].issue; v < jump {
					jump = v
				}
			}
			if jump <= now {
				jump = now + 1
			}
			now = jump
			continue
		}

		req := wq[pick&mask]
		if pick != head {
			// Swap-removal: the head request slides to the freed slot.
			// If it was its bank's cached oldest open-row request (it
			// must be, being the lowest slot of all), the cache no
			// longer knows the oldest — mark it stale.
			moved := wq[head&mask]
			wq[pick&mask] = moved
			if hits[moved.bank] == int32(head) {
				hits[moved.bank] = hitStale
			}
		}
		if hits[req.bank] == int32(pick) {
			hits[req.bank] = hitStale
		}
		head++

		b := &ch.banks[req.bank]
		start := now
		if b.readyAt > start {
			start = b.readyAt
		}

		var svc uint64
		switch {
		case b.openRow == req.row:
			res.rowHits++
			svc = tCL
		case b.openRow == int64(-1):
			res.rowEmpty++
			svc = s.cfg.TRCD + tCL
			b.activeAt = start
			hits[req.bank] = hitStale // open row changed
			candMask |= 1 << uint(req.bank)
		default:
			res.rowMisses++
			// Honor tRAS before precharging the open row.
			if b.activeAt+s.cfg.TRAS > start {
				start = b.activeAt + s.cfg.TRAS
			}
			svc = s.cfg.TRP + s.cfg.TRCD + tCL
			b.activeAt = start + s.cfg.TRP
			hits[req.bank] = hitStale // open row changed
			candMask |= 1 << uint(req.bank)
		}
		b.openRow = req.row

		// Slide the window: one slot enters as the head advances,
		// expanded from the span cursor. Register it as its bank's
		// candidate if it targets the (just updated) open row and the
		// bank has none cached; a lower cached slot or a stale marker
		// both take precedence.
		if win < total {
			w := q.next()
			wq[win&mask] = w
			if hits[w.bank] == hitNone && ch.banks[w.bank].openRow == w.row {
				hits[w.bank] = int32(win)
				candMask |= 1 << uint(w.bank)
			}
			win++
		}

		// Data bus occupancy serializes bursts on the channel.
		xferStart := start + svc
		if ch.busFree > xferStart {
			xferStart = ch.busFree
		}
		doneAt := xferStart + tBurst
		ch.busFree = doneAt
		b.readyAt = start + svc
		ch.busy += tBurst

		if doneAt > lastDone {
			lastDone = doneAt
		}
		// Advance local time to when the command was accepted so bank
		// timing makes forward progress (commands pipeline; data bus
		// is the throughput limit).
		if start > now {
			now = start
		}
		now += tBurst
	}
	if lastDone < now {
		lastDone = now
	}
	res.busy = ch.busy
	res.refreshes = ch.refCount
	res.done = lastDone
	return res
}
