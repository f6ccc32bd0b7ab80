package hanccr

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTailInterval is how often a follow-mode store stream polls a
// segment that currently has no new complete line. Poll-based (no
// fsnotify, no cgo) keeps the stream stdlib-only and portable; a
// quarter second is far below any cache-warming latency that matters
// while costing one read per idle tick.
const DefaultTailInterval = 250 * time.Millisecond

// tailReconnectBackoff is how long a follower waits before re-dialing
// a peer whose GET /v1/store stream dropped or refused.
const tailReconnectBackoff = 500 * time.Millisecond

// maxStoreLine bounds one line of a segment file or of a peer's store
// stream, newline excluded: twice the request-body limit, so a record
// carrying a maximal injected workflow document (base64-encoded, 4/3
// of its size) still fits beside its schedule metadata. Put refuses
// longer records, and every reader drops longer lines without
// buffering them, so neither a corrupt file nor a misbehaving peer can
// grow a reader's memory past it.
const maxStoreLine = 2 * maxRequestBody

// errLineTooLong reports a line above maxStoreLine. The reader has
// consumed it through its newline; its bytes are gone.
var errLineTooLong = fmt.Errorf("line longer than %d bytes", maxStoreLine)

// lineReader splits a byte stream into complete, newline-terminated
// lines. Bytes after the last newline — a torn tail, or a record still
// being written — are never returned as a line.
type lineReader struct {
	br   *bufio.Reader
	line []byte
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next complete line with its newline stripped, and
// the bytes it occupied (newline included). A line above maxStoreLine
// is read through its newline in discard mode and reported as
// errLineTooLong. At the end of the stream (io.EOF) or on a read error,
// n counts the unterminated bytes read after the last newline. The
// line is only valid until the next call.
func (lr *lineReader) next() (line []byte, n int64, err error) {
	lr.line = lr.line[:0]
	long := false
	for {
		chunk, err := lr.br.ReadSlice('\n')
		n += int64(len(chunk))
		if !long && len(lr.line)+len(chunk) > maxStoreLine+1 {
			long, lr.line = true, nil
		}
		if !long {
			lr.line = append(lr.line, chunk...)
		}
		switch {
		case err == bufio.ErrBufferFull:
			continue
		case err != nil:
			return nil, n, err
		case long:
			return nil, n, errLineTooLong
		}
		return lr.line[:len(lr.line)-1], n, nil
	}
}

// storeCursor is a position in a store's segment sequence. The store
// stream emits it as a header line, {"segment":S,"offset":N}, each time
// it enters a segment; every other line it emits is one record exactly
// as it sits on disk, so a consumer that adds len(line)+1 per record
// always holds the cursor of the next byte it needs.
type storeCursor struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

// segments snapshots the existing segment sequence numbers.
func (st *PlanStore) segments() []uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Clone(st.segs)
}

// stream hands emit the store's lines in segment order from cur: a
// header line on entering each segment, then that segment's complete
// record lines (newline stripped). A torn tail is held back until its
// newline lands; an over-long line is skipped and followed by a header
// that re-synchronizes the cursor. Once a higher segment exists the
// current one is sealed — it is read to EOF once more and the stream
// moves on. A cursor whose segment was compacted away resumes at
// offset 0 of the next higher one (replayed records are duplicates,
// and absorbing is idempotent); a cursor beyond the newest segment, or
// beyond its segment's size, names a store that was reset, and the
// stream restarts from the oldest segment at offset 0.
//
// Without follow, stream returns nil at the end of the newest segment;
// with it, stream polls every DefaultTailInterval until ctx is done or
// emit fails. It never takes st.mu for longer than a snapshot of the
// segment list, so Put and Get do no extra work for it.
func (st *PlanStore) stream(ctx context.Context, cur storeCursor, follow bool, emit func(line []byte) error) error {
	for {
		segs := st.segments()
		i := sort.Search(len(segs), func(i int) bool { return segs[i] >= cur.Segment })
		switch {
		case i == len(segs):
			cur = storeCursor{Segment: segs[0]}
		case segs[i] != cur.Segment:
			cur = storeCursor{Segment: segs[i]}
		}
		f, err := os.Open(st.segPath(cur.Segment))
		if errors.Is(err, fs.ErrNotExist) && !slices.Contains(st.segments(), cur.Segment) {
			continue // compacted away since the snapshot
		}
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		sealed, reset := false, err == nil && cur.Offset > fi.Size()
		if err == nil && !reset {
			sealed, err = st.streamSegment(ctx, f, &cur, follow, emit)
		}
		f.Close() //hanccr:allow discarderr segment opened read-only; a close error cannot lose data we only read
		switch {
		case err != nil:
			return err
		case reset:
			cur = storeCursor{Segment: segs[0]}
		case sealed:
			cur = storeCursor{Segment: cur.Segment + 1}
		default:
			return nil
		}
	}
}

// streamSegment is stream's loop over one open segment file. It
// reports sealed once the segment is read to its end and a higher one
// exists.
func (st *PlanStore) streamSegment(ctx context.Context, f *os.File, cur *storeCursor, follow bool, emit func(line []byte) error) (bool, error) {
	header := func() error {
		line, err := json.Marshal(cur)
		if err != nil {
			return err
		}
		return emit(line)
	}
	if err := header(); err != nil {
		return false, err
	}
	lr := newLineReader(f)
	for {
		// Snapshot before reading: once a higher segment exists every
		// write to this one is done, so this read reaches its true end.
		segs := st.segments()
		sealed := segs[len(segs)-1] > cur.Segment
		if _, err := f.Seek(cur.Offset, io.SeekStart); err != nil {
			return false, err
		}
		lr.br.Reset(f)
		for {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			line, n, err := lr.next()
			if err == io.EOF {
				break
			}
			if err != nil && err != errLineTooLong {
				return false, err
			}
			cur.Offset += n
			if err == errLineTooLong {
				err = header()
			} else {
				err = emit(line)
			}
			if err != nil {
				return false, err
			}
		}
		if sealed || !follow {
			return sealed, nil
		}
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(DefaultTailInterval):
		}
	}
}

// Follow continuously absorbs a peer replica's solved plans into this
// Service — the cross-process warm path. peer is the base URL of a
// replica running with a plan store; Follow reads its GET /v1/store
// stream and, on a pool of workers goroutines (0 = all cores), checks
// each record's CRC, plans its scenario afresh exactly as LoadStore does
// (reload: the scenario must hash to the record's key), makes the plan
// resident (Stats.StoreLoads counts it, not a miss), and writes its
// record through to this Service's own store. When the stream drops, Follow re-dials from the last cursor it
// received; replayed records are deduplicated by the cache and by Put.
//
// Follow runs until ctx is done and returns how many records it
// absorbed and how many it rejected (unparseable, over-long, failing
// their CRC or their decode, or a scenario that fails to plan), plus
// ctx.Err().
func (s *Service) Follow(ctx context.Context, peer string, workers int) (absorbed, failed int, err error) {
	base := strings.TrimRight(peer, "/")
	if !isPeerURL(base) {
		return 0, 0, fmt.Errorf("follow %q: want a peer replica URL (http:// or https://)", peer)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type queued struct {
		key     string
		payload []byte
		at      storeCursor
	}
	var ok, bad atomic.Int64
	reject := func(at storeCursor, err error) {
		bad.Add(1)
		s.logf("follow %s: segment %d offset %d: %v", base, at.Segment, at.Offset, err)
	}
	// Two queued records per worker keep every worker busy while the
	// stream parses the next line, and bound the payloads held at once.
	ch := make(chan queued, 2*workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range ch {
				switch err := s.absorb(ctx, q.key, q.payload); {
				case err == nil:
					ok.Add(1)
				case ctx.Err() == nil: // a cancelled reload is not a bad record
					reject(q.at, err)
				}
			}
		}()
	}
	err = followStream(ctx, base+"/v1/store", func(key string, payload []byte, at storeCursor, err error) error {
		if err != nil {
			reject(at, err)
			return nil
		}
		select {
		case ch <- queued{key, payload, at}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	close(ch)
	wg.Wait()
	return int(ok.Load()), int(bad.Load()), err
}

// isPeerURL reports whether s names a peer replica (an http or https
// URL) rather than a local path: a store directory belongs to one
// process, so plans travel between replicas over GET /v1/store only.
func isPeerURL(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// absorb reloads one peer record, makes its plan resident and writes
// its record through to this Service's store. A key that is already
// resident (or in flight) and already in the store (or with no store
// to write) is left as it is: a replayed stream repeats records, and
// reloading one would plan its scenario again for nothing.
func (s *Service) absorb(ctx context.Context, key string, payload []byte) error {
	if s.plans.contains(key) && (s.store == nil || s.store.has(key)) {
		return nil
	}
	p, _, err := s.reload(ctx, key, payload)
	if err != nil {
		return err
	}
	if s.plans.add(key, cachedPlan{p, CacheMiss}) {
		s.storeLoads.Add(1)
	}
	s.storePut(key, p)
	return nil
}

// followStream reads a store stream at url (GET /v1/store) from the
// start, re-dialing from the last cursor whenever the connection drops
// or the peer refuses (a 503 while it drains, a 404 before it has a
// store). Header lines move the cursor; every other line reaches fn
// with the cursor it starts at, as a CRC-checked record or as the
// reason it is not one. A trailing partial line never reaches fn and
// is re-requested from its first byte. followStream returns fn's
// error, or ctx.Err().
func followStream(ctx context.Context, url string, fn func(key string, payload []byte, at storeCursor, err error) error) error {
	client := &http.Client{} // no global timeout: the stream is long-lived
	var cur storeCursor
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s?segment=%d&offset=%d&follow=1", url, cur.Segment, cur.Offset), nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			if resp.StatusCode == http.StatusOK {
				err = readStoreStream(resp.Body, &cur, fn)
			} else {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //hanccr:allow discarderr best-effort bounded drain before retrying the peer; nothing to resend
			}
			resp.Body.Close()
			if err != nil {
				return err
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(tailReconnectBackoff):
		}
	}
}

// errNotRecord rejects a stream line that is neither a header nor a
// record in the store's one form.
var errNotRecord = errors.New("not a store record")

// readStoreStream relays one connection's lines to fn, advancing cur.
// It returns fn's error; the end of the stream is not an error.
func readStoreStream(body io.Reader, cur *storeCursor, fn func(key string, payload []byte, at storeCursor, err error) error) error {
	lr := newLineReader(body)
	for {
		line, n, err := lr.next()
		if err != nil && err != errLineTooLong {
			return nil
		}
		var key string
		var payload []byte
		if err == nil {
			var header *storeCursor
			if key, payload, header, err = parseStreamLine(line); header != nil {
				*cur = *header
				continue
			}
		}
		if ferr := fn(key, payload, *cur, err); ferr != nil {
			return ferr
		}
		cur.Offset += n
	}
}

// parseStreamLine parses one store stream line: a CRC-checked record
// (parseRecordLine), whose payload it copies out of line, or a cursor
// header, the only line read with encoding/json.
func parseStreamLine(line []byte) (key string, payload []byte, header *storeCursor, err error) {
	f, ok := parseRecordLine(line)
	if !ok {
		var h struct {
			Segment *uint64 `json:"segment"`
			Offset  *int64  `json:"offset"`
		}
		if json.Unmarshal(line, &h) != nil || h.Segment == nil || h.Offset == nil || *h.Offset < 0 {
			return "", nil, nil, errNotRecord
		}
		return "", nil, &storeCursor{Segment: *h.Segment, Offset: *h.Offset}, nil
	}
	payload = f.payload(line)
	if crc32.ChecksumIEEE(payload) != f.crc {
		return "", nil, nil, errors.New("record payload fails its CRC")
	}
	return f.key, bytes.Clone(payload), nil, nil
}
