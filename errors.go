package noftl

import (
	"errors"
	"fmt"

	"noftl/internal/btree"
	"noftl/internal/core"
	"noftl/internal/ddl"
	"noftl/internal/flash"
	"noftl/internal/storage"
	"noftl/internal/txn"
	"noftl/internal/wal"
)

// The package's error taxonomy.  Every error returned by the public API can
// be classified with errors.Is against these sentinels; the DDL path
// additionally returns *DDLError (errors.As) carrying the failing statement
// and clause.
var (
	// ErrNotFound reports a lookup of an unknown table, index, tablespace,
	// region, key or record.
	ErrNotFound = errors.New("noftl: not found")
	// ErrClosed reports use of a closed database.
	ErrClosed = errors.New("noftl: database closed")
	// ErrUnsupported reports an operation the engine cannot perform (e.g.
	// dropping the SYSTEM tablespace).
	ErrUnsupported = errors.New("noftl: unsupported operation")
	// ErrConflict reports an operation that clashed with existing state or a
	// concurrent transaction: creating an object whose name is taken,
	// dropping an object that is still in use, or losing a lock wait: at
	// once when the wait would close a deadlock, or when it outlives its
	// virtual-time budget (Config.LockTimeout).
	ErrConflict = errors.New("noftl: conflict")
	// ErrRegionFull reports a write that exceeded its region's logical
	// capacity (and could not spill).
	ErrRegionFull = errors.New("noftl: region full")
	// ErrTooLarge reports a row that fits no heap page or no log record, an
	// index key too large for a B+-tree node, or a Table.GetBatch whose pages
	// cannot all be pinned in the buffer pool at once.
	ErrTooLarge = errors.New("noftl: row or key too large")
	// ErrCrashed reports that the simulated device hit an injected crash
	// point (see WithFaultPlan): every further operation fails until the
	// database is reopened with Reopen, which runs crash recovery.
	ErrCrashed = flash.ErrCrashed
	// ErrCorruptLog reports that crash recovery found the surviving log
	// unusable (a non-tail log page with no valid version, or a missing log
	// prefix without a covering checkpoint).
	ErrCorruptLog = errors.New("noftl: corrupt log")
)

// DDLError is the structured error returned by Exec: which statement failed,
// where it starts in the executed input, and — when attributable — which
// clause was at fault.  It wraps the underlying cause, so errors.Is against
// the sentinels above (and against internal causes) keeps working.
type DDLError struct {
	// Stmt is the text of the offending statement, trimmed ("" when the
	// input could not be split into statements at all).
	Stmt string
	// Pos is the byte offset in the Exec input at which the offending
	// statement (or, for syntax errors, the offending token) begins.
	Pos int
	// Clause names the clause that failed when attributable, e.g.
	// "HOT_COLD", "GC_POLICY", "REGION", "TABLESPACE" ("" otherwise).
	Clause string
	// Err is the underlying cause.
	Err error
}

func (e *DDLError) Error() string {
	msg := fmt.Sprintf("noftl: DDL failed at position %d", e.Pos)
	if e.Clause != "" {
		msg += fmt.Sprintf(" (clause %s)", e.Clause)
	}
	if e.Stmt != "" {
		stmt := e.Stmt
		if len(stmt) > 60 {
			stmt = stmt[:57] + "..."
		}
		msg += fmt.Sprintf(" in %q", stmt)
	}
	return msg + ": " + e.Err.Error()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *DDLError) Unwrap() error { return e.Err }

// taggedError attaches a public sentinel to an internal error without
// changing its message: errors.Is matches both the sentinel and the original
// cause chain.
type taggedError struct {
	sentinel error
	err      error
}

func (e *taggedError) Error() string   { return e.err.Error() }
func (e *taggedError) Unwrap() []error { return []error{e.sentinel, e.err} }

// tag wraps err with the sentinel unless it already matches it.
func tag(sentinel, err error) error {
	if err == nil || errors.Is(err, sentinel) {
		return err
	}
	return &taggedError{sentinel: sentinel, err: err}
}

// publicErr classifies an internal error under the package's sentinel
// taxonomy.  Unknown errors pass through unchanged.
func publicErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrClosed),
		errors.Is(err, ErrUnsupported), errors.Is(err, ErrConflict),
		errors.Is(err, ErrRegionFull), errors.Is(err, ErrTooLarge):
		return err
	case errors.Is(err, storage.ErrNotFound),
		errors.Is(err, btree.ErrNotFound),
		errors.Is(err, core.ErrUnknownRegion),
		errors.Is(err, core.ErrUnmappedPage):
		return tag(ErrNotFound, err)
	case errors.Is(err, core.ErrRegionExists),
		errors.Is(err, core.ErrRegionNotEmpty),
		errors.Is(err, txn.ErrLockTimeout),
		errors.Is(err, txn.ErrLockBusy),
		errors.Is(err, txn.ErrTxnDone):
		return tag(ErrConflict, err)
	case errors.Is(err, core.ErrRegionFull):
		return tag(ErrRegionFull, err)
	case errors.Is(err, storage.ErrRecordTooLarge),
		errors.Is(err, btree.ErrKeyTooLarge),
		errors.Is(err, wal.ErrTooLarge):
		return tag(ErrTooLarge, err)
	case errors.Is(err, core.ErrDefaultRegion):
		return tag(ErrUnsupported, err)
	default:
		return err
	}
}

// ddlErr builds the *DDLError for one failing statement.
func ddlErr(stmt string, pos int, clause string, err error) error {
	if err == nil {
		return nil
	}
	var existing *DDLError
	if errors.As(err, &existing) {
		return err
	}
	return &DDLError{Stmt: stmt, Pos: pos, Clause: clause, Err: publicErr(err)}
}

// syntaxDDLErr converts a parser failure into a *DDLError pointing at the
// offending token.
func syntaxDDLErr(input string, err error) error {
	var se *ddl.SyntaxError
	if errors.As(err, &se) {
		start := se.Pos
		if start > len(input) {
			start = len(input)
		}
		end := start + 60
		if end > len(input) {
			end = len(input)
		}
		return &DDLError{Stmt: input[start:end], Pos: se.Pos, Clause: "syntax", Err: err}
	}
	return &DDLError{Pos: 0, Clause: "syntax", Err: err}
}
