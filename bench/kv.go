package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"noftl"
	"noftl/internal/sim"
)

// kvWorkload is kv-read-fit (mixed == false) or kv-mixed-durable (mixed ==
// true): one closed-loop client over table KV(k, v) with a unique index.
// oracle holds the committed value of every key; reads are checked against it
// as they happen and the whole table after each recovery.
type kvWorkload struct {
	opts   runOptions
	traced bool
	mixed  bool

	store  *noftl.DB
	tbl    *noftl.Table
	idx    *noftl.Index
	cursor *noftl.TimeCursor
	rng    *sim.Rand

	rows    int
	keys    [][]byte // index key of each row
	oracle  [][]byte // committed row image of each key
	version []uint32
	scratch []byte

	opsSinceCkpt int
	ckptWallMs   []float64
	ckptSimMs    []float64
	spans        *spans
}

// spanSampleEvery thins the traced run's wall-clock spans: timing every call
// would cost more than the calls themselves.
const spanSampleEvery = 16

// opKind is the kind of one KV transaction.
type opKind int

const (
	opRead opKind = iota
	opRange
	opUpdate
	numOpKinds
)

func (k opKind) String() string { return [...]string{"read", "range", "update"}[k] }

// spans holds the samples the benchmark records around its own calls into
// the public API during the traced run: wall-clock spans of every 16th
// transaction by call name, and the simulated response time of every
// transaction by kind.
type spans struct {
	wallNs      map[string][]float64
	latNs       [numOpKinds][]float64
	commitSimNs []float64
}

func (s *spans) wall(name string, t0 time.Time) {
	s.wallNs[name] = append(s.wallNs[name], float64(time.Since(t0)))
}

func (w *kvWorkload) db() *noftl.DB { return w.store }

func (w *kvWorkload) close() {
	if w.store != nil {
		w.store.Close() // read-only teardown; a failed final flush changes no reported number
		w.store = nil
	}
}

// fillRow writes the row image of (key, version): the 4-byte key followed by
// bytes derived from seed, key and version by splitmix64.
func fillRow(dst []byte, seed uint64, key, version uint32) {
	binary.BigEndian.PutUint32(dst, key)
	x := seed ^ uint64(key)<<32 ^ uint64(version)
	for i := 4; i < len(dst); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], z)
		copy(dst[i:], word[:])
	}
}

func (w *kvWorkload) setup() error {
	sz := w.opts.sz
	w.rows = sz.readRows
	if w.mixed {
		w.rows = sz.mixedRows
	}
	options := []noftl.Option{noftl.WithBufferPoolPages(sz.kvPool)}
	if w.traced {
		options = append(options, noftl.WithTraceBuffer(sz.traceEvents))
	}
	db, err := noftl.Open(options...)
	if err != nil {
		return err
	}
	w.store = db
	if w.tbl, err = db.CreateTable("KV", "", []noftl.Column{{Name: "k", Type: "NUMBER(10)"}, {Name: "v", Type: "VARBINARY"}}); err != nil {
		return err
	}
	if w.idx, err = db.CreateIndex("KV_PK", "KV", []string{"k"}, true, ""); err != nil {
		return err
	}
	w.keys = make([][]byte, w.rows)
	w.oracle = make([][]byte, w.rows)
	w.version = make([]uint32, w.rows)
	w.scratch = make([]byte, sz.kvRowBytes)
	backing := make([]byte, w.rows*sz.kvRowBytes)
	for k := range w.oracle {
		w.keys[k] = noftl.Key(uint32(k))
		w.oracle[k] = backing[k*sz.kvRowBytes : (k+1)*sz.kvRowBytes : (k+1)*sz.kvRowBytes]
		fillRow(w.oracle[k], w.opts.seed, uint32(k), 0)
	}
	for lo := 0; lo < w.rows; lo += sz.kvLoadBatch {
		hi := min(lo+sz.kvLoadBatch, w.rows)
		err := db.Update(func(tx *noftl.Tx) error {
			rids, err := w.tbl.InsertBatch(tx, w.oracle[lo:hi])
			if err != nil {
				return err
			}
			for i, rid := range rids {
				if err := w.idx.Insert(tx, w.keys[lo+i], rid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load rows %d..%d: %w", lo, hi, err)
		}
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		return fmt.Errorf("post-load checkpoint: %w", err)
	}
	w.rng = sim.NewRand(w.opts.seed)
	// Warm-up: touch every row once so kv-read-fit starts with its whole
	// table resident and kv-mixed-durable with a full pool.
	w.cursor = db.TimeCursor()
	for k := 0; k < w.rows; k++ {
		if _, err := w.read(k, nil); err != nil {
			return fmt.Errorf("warm-up read of key %d: %w", k, err)
		}
	}
	db.ResetStatistics()
	w.cursor = db.TimeCursor()
	if w.traced {
		w.spans = &spans{wallNs: make(map[string][]float64)}
	}
	return nil
}

// pickKey draws a key with 90 % of accesses on the first 10 % of the key
// space (rows are loaded in key order, so the hot rows share pages).
func (w *kvWorkload) pickKey() int {
	hot := max(w.rows/10, 1)
	if w.rng.Intn(10) < 9 || hot == w.rows {
		return w.rng.Intn(hot)
	}
	return hot + w.rng.Intn(w.rows-hot)
}

// read is one point-read transaction ended the way db.View ends it (Abort,
// no log force).  It returns the simulated response time.
func (w *kvWorkload) read(k int, sp *spans) (noftl.Duration, error) {
	tx := w.store.BeginAt(w.cursor.Now())
	defer func() { w.cursor.AdvanceTo(tx.Abort()) }()
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	rid, found, err := w.idx.Lookup(tx, w.keys[k])
	if sp != nil {
		sp.wall("lookup", t0)
		t0 = time.Now()
	}
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("key %d not found", k)
	}
	row, err := w.tbl.Get(tx, rid)
	if sp != nil {
		sp.wall("get", t0)
	}
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(row, w.oracle[k]) {
		return 0, fmt.Errorf("key %d: row differs from the generator's", k)
	}
	return tx.ResponseTime(), nil
}

// scan is one range-read transaction: readRangeLen index entries from k, then
// their rows in one GetBatch.
func (w *kvWorkload) scan(k int, sp *spans) (noftl.Duration, error) {
	n := min(w.opts.sz.readRangeLen, w.rows-k)
	var hi []byte
	if k+n < w.rows {
		hi = w.keys[k+n]
	}
	tx := w.store.BeginAt(w.cursor.Now())
	defer func() { w.cursor.AdvanceTo(tx.Abort()) }()
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	rids := make([]noftl.RID, 0, n)
	for _, rid := range w.idx.Range(tx, w.keys[k], hi) {
		rids = append(rids, rid)
	}
	if err := tx.Err(); err != nil {
		return 0, err
	}
	rows, err := w.tbl.GetBatch(tx, rids)
	if sp != nil {
		sp.wall("range", t0)
	}
	if err != nil {
		return 0, err
	}
	if len(rows) != n {
		return 0, fmt.Errorf("range from key %d: %d rows, want %d", k, len(rows), n)
	}
	for i, row := range rows {
		if !bytes.Equal(row, w.oracle[k+i]) {
			return 0, fmt.Errorf("range from key %d: row %d differs from the generator's", k, i)
		}
	}
	return tx.ResponseTime(), nil
}

// update is one single-row, same-size update transaction.  The oracle moves
// only after the commit succeeded.
func (w *kvWorkload) update(k int, sp *spans) (noftl.Duration, error) {
	fillRow(w.scratch, w.opts.seed, uint32(k), w.version[k]+1)
	tx := w.store.BeginAt(w.cursor.Now())
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	rid, found, err := w.idx.Lookup(tx, w.keys[k])
	if err == nil && !found {
		err = fmt.Errorf("key %d not found", k)
	}
	if err == nil {
		err = w.tbl.Update(tx, rid, w.scratch)
	}
	if sp != nil {
		sp.wall("update", t0)
		t0 = time.Now()
	}
	if err != nil {
		w.cursor.AdvanceTo(tx.Abort())
		return 0, err
	}
	beforeCommit := tx.Now()
	end, err := tx.Commit()
	if err != nil {
		w.cursor.AdvanceTo(tx.Abort())
		return 0, err
	}
	if sp != nil {
		sp.wall("commit", t0)
		sp.commitSimNs = append(sp.commitSimNs, float64(end.Sub(beforeCommit)))
	}
	w.cursor.AdvanceTo(end)
	copy(w.oracle[k], w.scratch)
	w.version[k]++
	return tx.ResponseTime(), nil
}

// checkpoint takes the periodic snapshot checkpoint of kv-mixed-durable and
// times it on both clocks.
func (w *kvWorkload) checkpoint() error {
	t0 := time.Now()
	start := w.cursor.Now()
	end, err := w.store.Checkpoint(start)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w.cursor.AdvanceTo(end)
	w.ckptWallMs = append(w.ckptWallMs, float64(time.Since(t0))/1e6)
	w.ckptSimMs = append(w.ckptSimMs, float64(end.Sub(start))/1e6)
	w.opsSinceCkpt = 0
	return nil
}

// transactions runs n transactions of the workload's mix.
func (w *kvWorkload) transactions(n int, m *measurement) (windowResult, error) {
	var wr windowResult
	for i := 0; i < n; i++ {
		var sp *spans
		if w.spans != nil && i%spanSampleEvery == 0 {
			sp = w.spans
		}
		k := w.pickKey()
		kind := opRead
		var lat noftl.Duration
		var err error
		switch {
		case w.mixed && w.rng.Intn(2) == 0:
			kind = opUpdate
			lat, err = w.update(k, sp)
		case !w.mixed && w.rng.Intn(20) == 0:
			kind = opRange
			lat, err = w.scan(k, sp)
		default:
			lat, err = w.read(k, sp)
		}
		wr.attempted++
		if err != nil {
			wr.failed++
			m.problem("%s: %v", kind, err)
			continue
		}
		wr.ops++
		wr.latNs += float64(lat)
		if w.spans != nil {
			w.spans.latNs[kind] = append(w.spans.latNs[kind], float64(lat))
		}
		// Checkpoints are paced by transactions, not by updates, so every
		// window holds the same number of them and windows stay comparable.
		if w.opsSinceCkpt++; w.mixed && w.opsSinceCkpt >= w.opts.sz.mixedCkptOps {
			if err := w.checkpoint(); err != nil {
				return wr, err
			}
		}
	}
	return wr, nil
}

func (w *kvWorkload) window(_ int, m *measurement) error {
	n := w.opts.sz.readWindowOps
	if w.mixed {
		n = w.opts.sz.mixedWindowOps
	}
	return m.measure(w.store, func() (windowResult, error) { return w.transactions(n, m) })
}

// verifyAll checks every key against the oracle, that the index addresses
// exactly the rows, and the space manager's invariants.
func (w *kvWorkload) verifyAll(m *measurement, when string) {
	if rows, entries := w.tbl.RowCount(), w.idx.Entries(); rows != int64(w.rows) || entries != rows {
		m.problem("%s: %d rows, %d index entries, want %d of each", when, rows, entries, w.rows)
	}
	for k := 0; k < w.rows; k++ {
		if _, err := w.read(k, nil); err != nil {
			m.failed++
			m.problem("%s: %v", when, err)
		}
	}
	if err := w.store.Admin().VerifyIntegrity(); err != nil {
		m.problem("%s: VerifyIntegrity: %v", when, err)
	}
}

func (w *kvWorkload) finish(m *measurement, out map[string]float64) error {
	if w.spans != nil {
		for name, metric := range map[string]string{
			"lookup": "noftl.lookup_wall_ns_p50", "get": "noftl.get_wall_ns_p50", "range": "noftl.range_wall_ns_p50",
			"update": "noftl.update_wall_ns_p50", "commit": "noftl.commit_wall_ns_p50",
		} {
			out[metric] = median(w.spans.wallNs[name])
		}
		out["noftl.commit_sim_us_mean"] = mean(w.spans.commitSimNs) / 1e3
		for _, kind := range []opKind{opRead, opUpdate} {
			lat := sorted(w.spans.latNs[kind])
			out["noftl."+kind.String()+"_sim_us_p50"] = sortedPercentile(lat, 50) / 1e3
			out["noftl."+kind.String()+"_sim_us_p99"] = sortedPercentile(lat, 99) / 1e3
		}
		w.spans = nil
	}
	out["noftl.checkpoint_wall_ms_mean"] = mean(w.ckptWallMs)
	out["noftl.checkpoint_sim_ms_mean"] = mean(w.ckptSimMs)
	if !w.mixed {
		w.verifyAll(m, "end of run")
		return nil
	}

	// Crash drill: a few more transactions so the log has a tail past the
	// last checkpoint, then power-cut the device, recover, check every key.
	// Exactly one crash: a second crash after a recovery is refused by the engine
	// (ErrCorruptLog, see README "Known gaps"), and a workload must not fail.
	tail, err := w.transactions(w.opts.sz.mixedTailOps, m)
	if err != nil {
		return err
	}
	m.attempted += tail.attempted
	m.failed += tail.failed
	img := w.store.Crash()
	t0 := time.Now()
	db, err := noftl.Reopen(img)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	out["noftl.reopen_wall_ms"] = float64(time.Since(t0)) / 1e6
	w.store = db
	var ok1, ok2 bool
	w.tbl, ok1 = db.Table("KV")
	w.idx, ok2 = db.Index("KV_PK")
	if !ok1 || !ok2 {
		return fmt.Errorf("reopen: table or index missing after recovery")
	}
	w.cursor = db.TimeCursor()
	if rs, recovered := db.Recovery(); recovered {
		out["noftl.reopen_replayed_kb"] = float64(rs.ReplayedBytes) / 1024
		out["noftl.recovery_mb"] = float64(rs.CheckpointBytes+rs.ReplayedBytes) / 1e6
	}
	w.verifyAll(m, "after reopen")
	return nil
}
