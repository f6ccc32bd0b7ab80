package hanccr

//hanccr:allow-file lockio l.mu is the append serialization point: Record must write whole lines one at a time or concurrent requests would interleave bytes inside a line, and the dirty-flag recovery depends on observing its own write's outcome before the next

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// ScenarioLog records scenario traffic as JSONL — one ScenarioRequest
// per line — so a later boot can replay it through the cache
// (Service.WarmFromLog) and a peer can tail it continuously
// (Service.Follow, GET /v1/log). Safe for concurrent use; attach one
// to an HTTP handler with WithScenarioLog.
type ScenarioLog struct {
	mu sync.Mutex
	w  io.Writer
	// dirty means the last write left a half-finished line in the log
	// (short or failed write): the next record must emit a recovery
	// newline first, or it would merge with the fragment into one
	// unparseable line and poison every reader from that point on.
	dirty bool
	// path and file are set when the log was opened by OpenScenarioLog;
	// path is what GET /v1/log tails.
	path string
	file *os.File
}

// NewScenarioLog wraps w as a scenario log. The caller owns w (and
// closes it, if it is a file). A log built this way has no path, so it
// cannot back the GET /v1/log endpoint — use OpenScenarioLog for that.
func NewScenarioLog(w io.Writer) *ScenarioLog { return &ScenarioLog{w: w} }

// OpenScenarioLog opens (creating, append-only) the JSONL scenario log
// at path. A path-backed log can be streamed to peers via GET /v1/log;
// the caller closes it with Close when the daemon shuts down.
func OpenScenarioLog(path string) (*ScenarioLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &ScenarioLog{w: f, path: path, file: f}, nil
}

// Path returns the file path behind the log, or "" when the log wraps
// a plain writer.
func (l *ScenarioLog) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Close closes the underlying file when the log owns one
// (OpenScenarioLog); a writer-wrapped or nil log is a no-op.
func (l *ScenarioLog) Close() error {
	if l == nil || l.file == nil {
		return nil
	}
	return l.file.Close()
}

// Record appends one scenario request as a single JSON line. A nil log
// records nothing.
//
// A short or failed write can leave a partial line with no trailing
// newline in the file; Record tracks that with a dirty flag and emits
// a recovery newline before the next record, so one bad write (a full
// disk, a signal-interrupted syscall) corrupts at most the record it
// carried — the salvaged fragment becomes its own unparseable line,
// which the tailer skips, instead of merging with the next record.
func (l *ScenarioLog) Record(req ScenarioRequest) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(req)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dirty {
		if _, err := l.w.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("scenario log: recovery newline: %w", err)
		}
		l.dirty = false
	}
	n, err := l.w.Write(line)
	if n > 0 && n < len(line) {
		l.dirty = true
	}
	if err == nil && n < len(line) {
		err = io.ErrShortWrite
	}
	return err
}

// maxScenarioLogLine bounds one JSONL line of a scenario log: the
// request-body limit plus slack for the JSON envelope around an
// injected workflow document.
const maxScenarioLogLine = maxRequestBody + 4096

// WarmFromLog replays a JSONL scenario stream (one ScenarioRequest per
// line, blank lines skipped) through the sharded plan cache on a pool
// of the given size (0 = all cores), so a restarted daemon answers its
// recorded traffic from memory. Lines stream to the workers through a
// bounded channel as they are scanned — the log is never resident as a
// whole, so peak memory is the channel depth plus one in-flight
// scenario per worker, not the line count (lines can be ~16 MiB when
// they carry injected workflow documents).
//
// It returns how many scenarios now sit in the cache as plans
// (duplicates of an already-warm scenario count as warmed — they hit)
// and how many failed to plan. A syntactically broken or over-long
// line aborts with an error naming the line number — a corrupt log
// should be noticed, not silently half-replayed — while per-scenario
// planning failures (e.g. a logged scenario whose workflow no longer
// validates) only count toward failed. On abort the counts still
// report the replay done before the bad line was reached.
func (s *Service) WarmFromLog(ctx context.Context, r io.Reader, workers int) (warmed, failed int, err error) {
	ch, wait := s.warmPool(ctx, workers)

	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 64*1024), maxScenarioLogLine)
	line := 0
	var scanErr error
scanLoop:
	for scan.Scan() {
		line++
		raw := bytes.TrimSpace(scan.Bytes())
		if len(raw) == 0 {
			continue
		}
		var req ScenarioRequest
		if uerr := json.Unmarshal(raw, &req); uerr != nil {
			scanErr = fmt.Errorf("scenario log line %d: %w", line, uerr)
			break
		}
		// req.Scenario() clones any injected document out of the
		// scanner's buffer, so the next Scan cannot corrupt a scenario
		// already queued.
		select {
		case ch <- req.Scenario():
		case <-ctx.Done():
			break scanLoop
		}
	}
	if scanErr == nil {
		if serr := scan.Err(); serr != nil {
			// The scanner dies while reading the line AFTER the last one
			// it returned (token too long, I/O error) — name that line so
			// an over-long entry is findable in a million-line log.
			scanErr = fmt.Errorf("scenario log line %d: %w", line+1, serr)
		}
	}
	close(ch)
	warmed, failed, abortErr := wait()
	switch {
	case scanErr != nil:
		return warmed, failed, scanErr
	case abortErr != nil:
		return warmed, failed, abortErr
	default:
		return warmed, failed, ctx.Err()
	}
}

// warmPool starts the bounded-channel replay pool shared by boot-time
// warm-up (WarmFromLog) and continuous tailing (Service.Follow):
// workers drain scenarios from the returned channel straight into the
// plan cache. The caller closes the channel when the stream ends; wait
// then reports how many scenarios planned (or hit warm), how many
// failed, and the first abort error a cancelled context produced.
func (s *Service) warmPool(ctx context.Context, workers int) (chan<- Scenario, func() (warmed, failed int, abortErr error)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ch := make(chan Scenario, 2*workers)
	var ok, bad atomic.Int64
	var abortErr error
	var abortOnce sync.Once
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sc := range ch {
				// Replay bypasses the admission gate and request budget: it
				// runs before (or beside) live traffic, is already bounded by
				// this worker pool, and a gate sized for request bursts must
				// not shed the very scenarios meant to warm the cache.
				if perr := warmOne(ctx, s, sc); perr != nil {
					if ctx.Err() != nil {
						abortOnce.Do(func() { abortErr = perr })
						return
					}
					bad.Add(1)
					continue
				}
				ok.Add(1)
			}
		}()
	}
	wait := func() (int, int, error) {
		wg.Wait()
		return int(ok.Load()), int(bad.Load()), abortErr
	}
	return ch, wait
}

// warmOne plans one replayed scenario straight through the plan cache
// (no admission gate, no request budget — see the worker loop above).
func warmOne(ctx context.Context, s *Service, sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	_, _, err := s.planForKey(ctx, sc, sc.Key())
	return err
}
