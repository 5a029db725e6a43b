package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"noftl/internal/sim"
)

// jsonEvent is the on-disk form of an Event: one JSON object per line, with
// the class spelled by name so dumped traces stay greppable and stable across
// class renumbering.  Zero/absent fields are omitted to keep dumps compact.
type jsonEvent struct {
	Seq    uint64 `json:"seq"`
	Class  string `json:"class"`
	Op     uint8  `json:"op,omitempty"`
	Prio   uint8  `json:"prio,omitempty"`
	Die    int32  `json:"die"`
	Block  int32  `json:"block,omitempty"`
	Page   int32  `json:"page,omitempty"`
	Region int32  `json:"region,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	A      int64  `json:"a,omitempty"`
	B      int64  `json:"b,omitempty"`
}

// WriteJSONL writes events to w as JSON Lines, one event per line, in the
// given order.  It is the dump format consumed by `noftl-trace` and LoadJSONL.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline JSONL needs
	for _, e := range events {
		je := jsonEvent{
			Seq: e.Seq, Class: e.Class.String(), Op: e.Op, Prio: e.Prio,
			Die: e.Die, Block: e.Block, Page: e.Page, Region: e.Region,
			Start: int64(e.Start), End: int64(e.End),
			A: e.A, B: e.B,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump writes the tracer's retained events to w as JSONL and returns how many
// were written.  Nil-safe: a nil tracer dumps nothing.
func (t *Tracer) Dump(w io.Writer) (int, error) {
	events := t.Events()
	if len(events) == 0 {
		return 0, nil
	}
	return len(events), WriteJSONL(w, events)
}

// LoadJSONL reads a JSONL trace back into events.  Blank lines and unknown
// keys (such as the "wall" of older dumps) are skipped; an unknown class name
// or malformed line is an error carrying the line number.
func LoadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		c, ok := ParseClass(je.Class)
		if !ok {
			return nil, fmt.Errorf("obs: trace line %d: unknown class %q", line, je.Class)
		}
		out = append(out, Event{
			Seq: je.Seq, Class: c, Op: je.Op, Prio: je.Prio,
			Die: je.Die, Block: je.Block, Page: je.Page, Region: je.Region,
			Start: sim.Time(je.Start), End: sim.Time(je.End),
			A: je.A, B: je.B,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
