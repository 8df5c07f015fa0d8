package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"incranneal/internal/faultinject"
)

// journalFile is the admission journal's name inside Config.JournalDir.
const journalFile = "queue.journal"

// journalRecord is one JSON line of the admission journal. Op "accept"
// carries the full request so a crashed daemon can re-run it; op "done" is
// the tombstone retiring an id once its response was written (success,
// failure and rejection alike).
type journalRecord struct {
	Op       string        `json:"op"` // "accept" or "done"
	ID       string        `json:"id"`
	Priority int           `json:"priority,omitempty"`
	Request  *SolveRequest `json:"request,omitempty"`
}

// journal is the append-only on-disk admission journal giving the daemon
// at-least-once request durability: every accepted request is journaled
// (fsync'd) before it is admitted, every answered request appends a
// tombstone, and a restarting daemon re-runs the accepted-but-untombstoned
// remainder. Tombstones are buffered appends without fsync — losing one to
// a crash merely replays a request that was already answered, which
// at-least-once permits, while fsyncing only accepts keeps the write on
// the admission path to a single flush.
//
// A nil *journal (no -journal-dir) makes every method a no-op, so the
// serving path threads it unconditionally and PR 7 behaviour is unchanged
// without the flag.
type journal struct {
	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	path  string
	chaos *faultinject.Chaos
	// maxID is the largest numeric id suffix seen at open (tombstoned
	// records included); the server seeds its id generator past it.
	maxID int64
}

// openJournal opens (creating if needed) the journal in dir, compacts it —
// tombstoned records are dropped, the survivors rewritten via tmp+rename —
// and returns the open journal plus the orphaned accepts awaiting replay,
// in their original admission order.
func openJournal(dir string, chaos *faultinject.Chaos) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	orphans, maxID, err := readOrphans(path)
	if err != nil {
		return nil, nil, err
	}

	// Compact: the rewritten journal holds exactly the orphaned accepts.
	// tmp+rename keeps a crash mid-compaction from losing the journal — the
	// old file stays valid until the rename lands.
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal compact: %w", err)
	}
	enc := json.NewEncoder(tf)
	for i := range orphans {
		if err := enc.Encode(&orphans[i]); err != nil {
			tf.Close()
			return nil, nil, fmt.Errorf("serve: journal compact: %w", err)
		}
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return nil, nil, fmt.Errorf("serve: journal compact: %w", err)
	}
	if err := tf.Close(); err != nil {
		return nil, nil, fmt.Errorf("serve: journal compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, fmt.Errorf("serve: journal compact: %w", err)
	}
	// The rename lives in the directory entry: sync the directory too, or a
	// crash can bring back the pre-compaction journal.
	if err := syncDir(dir); err != nil {
		return nil, nil, fmt.Errorf("serve: journal compact: %w", err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal open: %w", err)
	}
	return &journal{f: f, w: bufio.NewWriter(f), path: path, chaos: chaos, maxID: maxID}, orphans, nil
}

// readOrphans parses the journal at path and returns accepted records with
// no tombstone, in admission order, plus the largest numeric id suffix
// seen across ALL records (tombstoned included — the id generator must be
// seeded past retired ids too). A missing file is an empty journal; a
// torn trailing line (crash mid-append) is skipped, not fatal.
func readOrphans(path string) ([]journalRecord, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal read: %w", err)
	}
	defer f.Close()
	var accepts []journalRecord
	var maxID int64
	done := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			// Torn write from a crash mid-append: everything before it is
			// intact (appends are line-atomic in practice); skip the line.
			continue
		}
		if n := numericID(rec.ID); n > maxID {
			maxID = n
		}
		switch rec.Op {
		case "accept":
			accepts = append(accepts, rec)
		case "done":
			done[rec.ID] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("serve: journal read: %w", err)
	}
	orphans := accepts[:0]
	for _, rec := range accepts {
		if !done[rec.ID] {
			orphans = append(orphans, rec)
		}
	}
	return orphans, maxID, nil
}

// accept journals an accepted request, fsync'd so the record survives the
// daemon: the caller only admits the job once this returns nil. Chaos
// journal-write faults surface here as errors.
func (jl *journal) accept(id string, priority int, req *SolveRequest) error {
	if jl == nil {
		return nil
	}
	if jl.chaos.FailNextJournalWrite() {
		return fmt.Errorf("serve: journal write: %w", faultinject.ErrInjected)
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	enc := json.NewEncoder(jl.w)
	if err := enc.Encode(&journalRecord{Op: "accept", ID: id, Priority: priority, Request: req}); err != nil {
		return fmt.Errorf("serve: journal write: %w", err)
	}
	if err := jl.w.Flush(); err != nil {
		return fmt.Errorf("serve: journal write: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal write: %w", err)
	}
	return nil
}

// done appends id's tombstone (buffered, no fsync — see the type comment).
func (jl *journal) done(id string) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	json.NewEncoder(jl.w).Encode(&journalRecord{Op: "done", ID: id}) //nolint:errcheck
	jl.w.Flush()                                                     //nolint:errcheck
}

// close flushes and closes the journal file.
func (jl *journal) close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.w.Flush() //nolint:errcheck
	jl.f.Close() //nolint:errcheck
}

// numericID parses the numeric suffix of an id in the server's r%06d
// scheme, 0 for anything else.
func numericID(id string) int64 {
	if !strings.HasPrefix(id, "r") {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// syncDir flushes the directory entry table of dir to stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
