package sim

import (
	"cmp"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestResourceAcquireSequential(t *testing.T) {
	r := new(Resource)
	start, done := r.Acquire(0, 100*time.Nanosecond)
	if start != 0 || done != 100 {
		t.Fatalf("first op: got start=%d done=%d, want 0/100", start, done)
	}
	// Actor arrives at t=50 but resource is busy until 100.
	start, done = r.Acquire(50, 30*time.Nanosecond)
	if start != 100 || done != 130 {
		t.Fatalf("queued op: got start=%d done=%d, want 100/130", start, done)
	}
	// Actor arrives after the resource is idle.
	start, done = r.Acquire(500, 10*time.Nanosecond)
	if start != 500 || done != 510 {
		t.Fatalf("idle op: got start=%d done=%d, want 500/510", start, done)
	}
	if got := r.Busy(); got != 140*time.Nanosecond {
		t.Fatalf("busy = %v, want 140ns", got)
	}
}

func TestClockObservesMaximum(t *testing.T) {
	c := NewClock()
	cur1 := NewCursor(c)
	cur2 := NewCursor(c)
	cur1.Advance(100 * time.Nanosecond)
	cur2.Advance(40 * time.Nanosecond)
	if got := c.Now(); got != 100 {
		t.Fatalf("clock = %d, want 100", got)
	}
	cur2.AdvanceTo(400)
	if got := c.Now(); got != 400 {
		t.Fatalf("clock = %d, want 400", got)
	}
	// Advancing backwards is a no-op.
	cur2.AdvanceTo(10)
	if cur2.Now() != 400 {
		t.Fatalf("cursor moved backwards to %d", cur2.Now())
	}
}

func TestClockConcurrentObserve(t *testing.T) {
	c := NewClock()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			cur := NewCursor(c)
			for i := 0; i <= perWorker; i++ {
				cur.SetTo(Time(base + i))
			}
		}(w * perWorker)
	}
	wg.Wait()
	if got := c.Now(); got != Time(workers*perWorker) {
		t.Fatalf("clock = %d, want %d (max across all workers)", got, workers*perWorker)
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset did not zero the clock")
	}
}

func TestCursorSetTo(t *testing.T) {
	cur := NewCursor(nil)
	cur.AdvanceTo(500)
	cur.SetTo(100)
	if cur.Now() != 100 {
		t.Fatalf("SetTo did not move cursor back: %d", cur.Now())
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(1_500_000) // 1.5 ms
	if tm.Micros() != 1500 {
		t.Fatalf("Micros = %v", tm.Micros())
	}
	if tm.Millis() != 1.5 {
		t.Fatalf("Millis = %v", tm.Millis())
	}
	if tm.Seconds() != 0.0015 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Add(500_000*time.Nanosecond) != Time(2_000_000) {
		t.Fatalf("Add wrong")
	}
	if tm.Sub(Time(500_000)) != time.Millisecond {
		t.Fatalf("Sub wrong")
	}
	if tm.String() == "" {
		t.Fatalf("empty String()")
	}
}

// fcfs is the rule a Resource followed before it kept a timeline: requests
// queue in submission order behind a single "free at" time.
type fcfs struct{ freeAt Time }

func (q *fcfs) acquire(now Time, d Duration) (start, done Time) {
	start = MaxTime(now, q.freeAt)
	q.freeAt = start.Add(d)
	return start, q.freeAt
}

// Property: for any sequence of (arrival, service) pairs no operation starts
// before its arrival or later than a queue in submission order would start it,
// and it occupies the resource for exactly its service time.
func TestResourceFCFSProperty(t *testing.T) {
	f := func(arrivals []uint16, services []uint8) bool {
		r := new(Resource)
		var q fcfs
		n := min(len(arrivals), len(services))
		for i := 0; i < n; i++ {
			arr := Time(arrivals[i])
			svc := Duration(services[i]) + 1
			start, done := r.Acquire(arr, svc)
			if start < arr {
				return false
			}
			if bound, _ := q.acquire(arr, svc); start > bound {
				return false
			}
			if done != start.Add(svc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Four actors whose cursors lie far apart share one resource.  Whatever the
// interleaving, no two services overlap (over the whole run, so nothing is
// ever placed inside history the resource has forgotten), none starts before
// its arrival or after the start submission-order FCFS gives the same
// sequence, and the accounting is that of the operations served.
func TestResourceTimelineProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := NewRand(seed)
		r := new(Resource)
		var q fcfs
		durations := []Duration{10, 40, 350, 1500} // transfer, read, program, erase
		cursors := []Time{0, 3_000, 50_000, 97_000}
		var served []span
		var busy Duration
		const ops = 4000 // several times maxSpans, so the history is pruned
		for i := 0; i < ops; i++ {
			a := rng.Intn(len(cursors))
			d := durations[rng.Intn(len(durations))]
			now := cursors[a]
			start, done := r.Acquire(now, d)
			bound, _ := q.acquire(now, d)
			if start < now || start > bound || done != start.Add(d) {
				t.Fatalf("seed %d op %d: arrival %d, service %d: got [%d,%d), FCFS start %d", seed, i, now, d, start, done, bound)
			}
			served = append(served, span{start, done})
			busy += d
			// The actor thinks for a while after its operation completes.
			cursors[a] = done.Add(Duration(rng.Intn(600)))
		}
		slices.SortFunc(served, func(x, y span) int { return cmp.Compare(x.start, y.start) })
		for i := 1; i < len(served); i++ {
			if served[i].start < served[i-1].end {
				t.Fatalf("seed %d: services %v and %v overlap", seed, served[i-1], served[i])
			}
		}
		if r.Busy() != busy {
			t.Fatalf("seed %d: busy %v, want %v", seed, r.Busy(), busy)
		}
		if len(r.spans) > maxSpans {
			t.Fatalf("seed %d: %d spans kept, bound %d", seed, len(r.spans), maxSpans)
		}
	}
}

// ResetBusy zeroes the busy total and nothing else: two resources fed the
// same operations serve them at the same times whether or not one had its
// total zeroed on the way, and its total counts what it served since.
func TestResourceResetBusyKeepsTheTimeline(t *testing.T) {
	rng := NewRand(9)
	var a, b Resource
	var since Duration
	for i := 0; i < 3000; i++ { // several times maxSpans: the history is pruned on the way
		if i == 1000 {
			b.ResetBusy()
			since = 0
		}
		now, d := Time(rng.Intn(200_000)), Duration(10+rng.Intn(1500))
		sa, da := a.Acquire(now, d)
		sb, db := b.Acquire(now, d)
		if sa != sb || da != db {
			t.Fatalf("op %d: [%d,%d) after ResetBusy, [%d,%d) without", i, sb, db, sa, da)
		}
		since += d
	}
	if b.Busy() != since || a.Busy() <= since {
		t.Fatalf("busy %v since the reset (want %v), %v without it", b.Busy(), since, a.Busy())
	}
}

// A single actor's arrivals are in time order: the timeline must give it the
// times submission-order FCFS gave, bit for bit (recorded from that rule), and
// keep a saturated stretch as one span.
func TestResourceSingleActorReproducesFCFS(t *testing.T) {
	r := new(Resource)
	trace := []struct {
		now         Time
		d           Duration
		start, done Time
	}{
		{0, 350, 0, 350},
		{0, 350, 350, 700},  // second program of the batch pipelines
		{40, 40, 700, 740},  // arrives inside the busy span
		{740, 10, 740, 750}, // arrives exactly as it ends
		{2_000, 1500, 2_000, 3_500},
		{2_000, 40, 3_500, 3_540},
		{3_600, 40, 3_600, 3_640},
	}
	var q fcfs
	for i, op := range trace {
		start, done := r.Acquire(op.now, op.d)
		if start != op.start || done != op.done {
			t.Fatalf("op %d: got [%d,%d), recorded [%d,%d)", i, start, done, op.start, op.done)
		}
		if s, e := q.acquire(op.now, op.d); s != start || e != done {
			t.Fatalf("op %d: the recorded trace is not FCFS: [%d,%d)", i, s, e)
		}
	}
	if want := []span{{0, 750}, {2_000, 3_540}, {3_600, 3_640}}; !slices.Equal(r.spans, want) {
		t.Fatalf("spans = %v, want %v (adjacent services merged)", r.spans, want)
	}
}

// An actor that lags behind another's reservation is served in the idle time
// before it, and one that lags behind the whole remembered history is served
// at the start of that history, never inside what was forgotten.
func TestResourceServesArrivalOrderAndPrunes(t *testing.T) {
	r := new(Resource)
	if start, _ := r.Acquire(50_000, 350); start != 50_000 {
		t.Fatalf("leader start = %d, want 50000", start)
	}
	if start, done := r.Acquire(0, 40); start != 0 || done != 40 {
		t.Fatalf("lagging read got [%d,%d), want [0,40): it must not wait for the leader", start, done)
	}
	// A gap too short for the operation is skipped, not overlapped.
	r.Acquire(100, 40)
	if start, _ := r.Acquire(30, 350); start != 140 {
		t.Fatalf("program start = %d, want 140 (the 60 ns gap before 100 cannot hold it)", start)
	}

	// Fill the history with separate spans until the early ones are forgotten.
	for i := 0; i < 2*maxSpans; i++ {
		r.Acquire(Time(100_000+100*i), 10)
	}
	if r.floor <= 50_350 || len(r.spans) > maxSpans {
		t.Fatalf("floor %d, %d spans: history was not pruned", r.floor, len(r.spans))
	}
	floor := r.floor
	if start, _ := r.Acquire(0, 10); start != floor {
		t.Fatalf("arrival before the history starts at %d, want the history's start %d", start, floor)
	}
	r.Reset()
	if start, _ := r.Acquire(0, 10); start != 0 {
		t.Fatalf("after Reset start = %d, want 0", start)
	}
}
