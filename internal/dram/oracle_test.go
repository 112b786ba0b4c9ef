package dram

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// legacyDrainChannel is the per-burst FR-FCFS drain the run step
// replaced, kept verbatim as the oracle: every pick pays the full
// head / rule-1 / rule-2 / time-jump decision and advances the clock
// by one burst. The differential tests below and FuzzDrainMatchesOracle
// require drainChannel to reproduce its Stats exactly.
func (s *Simulator) legacyDrainChannel(ch *channel, done <-chan struct{}) chanResult {
	var res chanResult
	var now uint64
	var lastDone uint64
	spans := ch.spans
	total := ch.total
	wq := ch.window
	mask := len(wq) - 1
	hits := ch.hits
	head := 0
	// candMask has bit b set iff hits[b] != hitNone, so the rule-1
	// sweep visits only banks that might contribute a candidate — on
	// bank-latency-limited streams (one active bank, its candidate
	// consumed by every pick) the sweep disappears entirely. Maintained
	// at every hits transition; usable only while the bank count fits
	// the word (always, for DDR4-like geometries).
	useCandMask := len(ch.banks) <= 64
	var candMask uint64

	// Expansion cursor: cur is the request value of the span currently
	// being expanded, rem its unexpanded burst count, si the index of
	// the *next* span. Caching the expanded value keeps the slide step
	// at one store, one decrement and one branch per burst.
	si := 0
	var cur request
	rem := int32(0)
	if len(spans) > 0 {
		cur = request{issue: spans[0].issue, row: spans[0].row, bank: spans[0].bank}
		rem = spans[0].count
		si = 1
	}
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
		wq[i] = cur
		rem--
		if rem == 0 && si < len(spans) {
			sp := &spans[si]
			cur = request{issue: sp.issue, row: sp.row, bank: sp.bank}
			rem = sp.count
			si++
		}
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

		// Fast path: the window head is the lowest slot any rule can
		// return, so if it is an issued row hit on a ready bank it wins
		// rule 1 outright — no candidate across the other banks can
		// have a smaller slot, and rules 2/3 only apply when rule 1
		// finds nothing. Streaming traces spend most picks here (a row
		// span is burstsPerRow back-to-back hits on one bank), skipping
		// the per-bank candidate sweep entirely. The cached candidates
		// of other banks are left untouched: stale entries resolve
		// lazily on their next use, exactly as the slow path leaves
		// them when a bank is skipped for not being ready.
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
			svc = s.cfg.TCL
		case b.openRow == int64(-1):
			res.rowEmpty++
			svc = s.cfg.TRCD + s.cfg.TCL
			b.activeAt = start
			hits[req.bank] = hitStale // open row changed
			candMask |= 1 << uint(req.bank)
		default:
			res.rowMisses++
			// Honor tRAS before precharging the open row.
			if b.activeAt+s.cfg.TRAS > start {
				start = b.activeAt + s.cfg.TRAS
			}
			svc = s.cfg.TRP + s.cfg.TRCD + s.cfg.TCL
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
			w := cur
			rem--
			if rem == 0 && si < len(spans) {
				sp := &spans[si]
				cur = request{issue: sp.issue, row: sp.row, bank: sp.bank}
				rem = sp.count
				si++
			}
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
		doneAt := xferStart + s.cfg.TBurst
		ch.busFree = doneAt
		b.readyAt = start + svc
		ch.busy += s.cfg.TBurst

		if doneAt > lastDone {
			lastDone = doneAt
		}
		// Advance local time to when the command was accepted so bank
		// timing makes forward progress (commands pipeline; data bus
		// is the throughput limit).
		if start > now {
			now = start
		}
		now += s.cfg.TBurst
	}
	if lastDone < now {
		lastDone = now
	}
	res.busy = ch.busy
	res.refreshes = ch.refCount
	res.done = lastDone
	return res
}

// drainWith runs tr through s, scheduling every channel with drain,
// under a cancellable context that is never cancelled, so the drains
// also pass through their cancellation polls.
func drainWith(t testing.TB, s *Simulator, tr *trace.Trace, drain drainFunc) Stats {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := s.run(ctx, func(yield func(*trace.Access)) {
		trace.ForEachMerged(tr, nil, yield)
	}, drain)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// byteSource hands out the bytes of a fuzz input, then zeros.
type byteSource []byte

func (b *byteSource) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// decodeCase builds a valid configuration and a short trace from
// arbitrary bytes. Geometries run from one channel and bank to four
// and sixteen, with power-of-two and other sizes; TBurst and TCL each
// range over 1..48, so both sides of TBurst = TCL occur; windows span
// 1..40 slots; a third of the configurations disable refresh and the
// rest refresh often. The trace keeps four address streams that
// either continue (long same-row runs) or jump (conflicts), issues
// them at a jittered, mostly rising cycle with rare long gaps (time
// jumps, refreshes and cancellation polls), and sizes them from a
// fraction of a burst to 4 KiB.
func decodeCase(data []byte) (Config, *trace.Trace) {
	src := byteSource(data)
	burst := 16 * (1 + int(src.next()%4))
	cfg := Config{
		Channels:     1 + int(src.next()%4),
		BanksPerChan: 1 + int(src.next()%16),
		BurstBytes:   burst,
		RowBytes:     burst * (1 + int(src.next()%32)),
		TBurst:       1 + uint64(src.next()%48),
		TCL:          1 + uint64(src.next()%48),
		TRCD:         1 + uint64(src.next()%32),
		TRP:          1 + uint64(src.next()%32),
		TRAS:         uint64(src.next() % 64),
		WindowSize:   1 + int(src.next()%40),
	}
	if r := src.next(); r%3 != 0 {
		cfg.TRefi = 200 + 40*uint64(r)
		cfg.TRfc = uint64(src.next()) * cfg.TRefi / 512
	}
	tr := &trace.Trace{}
	streams := [4]uint64{0, 1 << 16, 1 << 20, 1 << 24}
	var cycle uint64
	for len(src) > 0 {
		op, size, dt, x := src.next(), src.next(), src.next(), src.next()
		st := &streams[op&3]
		if op&4 != 0 {
			*st = uint64(x)*uint64(cfg.RowBytes)*3 + uint64(op>>3)*uint64(burst)
		}
		bytes := 1 + uint32(size)*16
		cycle += uint64(dt & 0x3f)
		switch dt >> 6 {
		case 2:
			cycle += 2000
		case 3:
			if dt == 0xff {
				cycle += 1 << 21
			}
		}
		tr.Append(trace.Access{
			Cycle: cycle + uint64(x>>5)*7,
			Addr:  *st,
			Bytes: bytes,
			Kind:  trace.Kind(x & 1),
		})
		*st += uint64(bytes)
	}
	return cfg, tr
}

// checkAgainstOracle drains data's case with drainChannel and with the
// per-burst oracle and reports any difference in Stats.
func checkAgainstOracle(t testing.TB, data []byte) bool {
	t.Helper()
	cfg, tr := decodeCase(data)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("decodeCase built an invalid config: %v", err)
	}
	got := drainWith(t, s, tr, (*Simulator).drainChannel)
	want := drainWith(t, s, tr, (*Simulator).legacyDrainChannel)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("config %+v, %d accesses:\n got %+v\nwant %+v", cfg, tr.Len(), got, want)
		return false
	}
	return true
}

// drainCase is a random fuzz-style input for testing/quick: a byte
// string long enough to decode into a configuration and up to a few
// hundred accesses.
type drainCase []byte

func (drainCase) Generate(r *rand.Rand, _ int) reflect.Value {
	b := make([]byte, 11+4*r.Intn(300))
	r.Read(b)
	return reflect.ValueOf(drainCase(b))
}

// TestDrainMatchesOracle is the seeded differential test: random
// geometries, timings and traces must drain to the oracle's Stats.
func TestDrainMatchesOracle(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 200
	}
	qc := &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(func(c drainCase) bool { return checkAgainstOracle(t, c) }, qc); err != nil {
		t.Error(err)
	}
}

// TestDrainMatchesOracleFixed holds the oracle to the golden
// geometries on the repo's hand-built traces, including a long
// same-row stream at TCL > TBurst that stalls on its own bank.
func TestDrainMatchesOracleFixed(t *testing.T) {
	traces := map[string]*trace.Trace{
		"conflict": conflictTrace(2000),
		"mixed":    mixedTrace(1000),
		"seq":      seqTrace(3000, 64, 64, trace.Read),
		"stall":    seqTrace(4, 1<<20, 1<<16, trace.Read),
	}
	for cname, cfg := range goldenConfigs() {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tname, tr := range traces {
			got := drainWith(t, s, tr, (*Simulator).drainChannel)
			want := drainWith(t, s, tr, (*Simulator).legacyDrainChannel)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s:\n got %+v\nwant %+v", cname, tname, got, want)
			}
		}
	}
}

// FuzzDrainMatchesOracle decodes a geometry, timings and a short trace
// from the fuzz input and requires drainChannel's Stats to equal the
// per-burst oracle's.
func FuzzDrainMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 3, 15, 31, 3, 13, 13, 13, 31, 31, 0, 0, 0x40, 0, 0, 1, 0x41, 1, 0})
	f.Add([]byte{3, 0, 0, 31, 39, 10, 10, 10, 31, 15, 1, 9, 4, 0xff, 5, 0, 0xff, 0xff, 0xff, 4, 0xff, 0x80, 1})
	f.Add([]byte{1, 2, 11, 23, 4, 20, 5, 5, 2, 0, 200, 60, 0, 8, 2, 0, 1, 9, 2, 0, 1, 8, 2, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		checkAgainstOracle(t, data)
	})
}

// TestDrainFloor: on random geometries, timings and traces, no drain
// finishes before two floors that hold whatever the scheduler picks.
// The busiest channel carries at least ⌈bursts/channels⌉ bursts, each
// holding its bus for TBurst; and the last-issued burst cannot start
// before its issue cycle, then pays TCL before its TBurst of data.
func TestDrainFloor(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 200
	}
	check := func(c drainCase) bool {
		cfg, tr := decodeCase(c)
		if tr.Len() == 0 {
			return true
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("decodeCase built an invalid config: %v", err)
		}
		st := drainWith(t, s, tr, (*Simulator).drainChannel)
		var lastIssue uint64
		for _, a := range tr.Accesses {
			lastIssue = max(lastIssue, a.Cycle)
		}
		bursts := st.Reads + st.Writes
		chans := uint64(cfg.Channels)
		busFloor := (bursts + chans - 1) / chans * cfg.TBurst
		issueFloor := lastIssue + cfg.TCL + cfg.TBurst
		if st.Cycles < max(busFloor, issueFloor) {
			t.Errorf("config %+v, %d accesses, %d bursts: drained in %d cycles, below the bus floor %d or the issue floor %d",
				cfg, tr.Len(), bursts, st.Cycles, busFloor, issueFloor)
			return false
		}
		return true
	}
	qc := &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(28))}
	if err := quick.Check(check, qc); err != nil {
		t.Error(err)
	}
}
