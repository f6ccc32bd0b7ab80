package hanccr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// refLRU is the sequential reference model of a flightCache: per
// shard, the resident keys in recency order (index 0 = most recent)
// and their values, bounded by the per-shard capacity.
type refLRU struct {
	cap    int
	order  [][]string
	values map[string]string
	shard  func(string) int
}

func (r *refLRU) contains(key string) bool {
	return slices.Contains(r.order[r.shard(key)], key)
}

func (r *refLRU) remove(key string) {
	i := r.shard(key)
	r.order[i] = slices.DeleteFunc(r.order[i], func(k string) bool { return k == key })
	delete(r.values, key)
}

// touch moves a resident key to the front of its shard.
func (r *refLRU) touch(key string) {
	v := r.values[key]
	r.remove(key)
	r.insert(key, v)
}

// insert claims key's slot at the front of its shard, evicting the
// least recently used keys beyond the capacity.
func (r *refLRU) insert(key, v string) {
	i := r.shard(key)
	r.order[i] = append([]string{key}, r.order[i]...)
	r.values[key] = v
	for len(r.order[i]) > r.cap {
		last := r.order[i][len(r.order[i])-1]
		r.order[i] = r.order[i][:len(r.order[i])-1]
		delete(r.values, last)
	}
}

func (r *refLRU) len() int {
	n := 0
	for _, o := range r.order {
		n += len(o)
	}
	return n
}

// checkAgainst compares every shard's recency order and every resident
// value of c with the reference, and the capacity bound.
func (r *refLRU) checkAgainst(t *testing.T, c *flightCache[string], step string) {
	t.Helper()
	for i, sh := range c.shards {
		sh.mu.Lock()
		var got []string
		for el := sh.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*flight[string])
			got = append(got, e.key)
			if e.err != nil {
				t.Errorf("%s: shard %d holds failed entry %s: %v", step, i, e.key, e.err)
			} else if e.v != r.values[e.key] {
				t.Errorf("%s: %s holds %q, reference %q", step, e.key, e.v, r.values[e.key])
			}
		}
		sh.mu.Unlock()
		if !slices.Equal(got, r.order[i]) {
			t.Fatalf("%s: shard %d order %v, reference %v", step, i, got, r.order[i])
		}
	}
	entries, capacity := c.size()
	if entries != r.len() || entries > capacity {
		t.Fatalf("%s: %d entries (capacity %d), reference %d", step, entries, capacity, r.len())
	}
}

// TestFlightCacheMatchesSequentialModel drives randomized sequences of
// successful gets, failing fills, fills under a cancelled context,
// coalesced waiters and waiters whose initiator is cancelled through a
// flightCache small enough to evict constantly, and checks after every
// step: the resident/absent answer (also through contains, which must
// not promote), one fill per absent key per flight, no cached failure,
// live waiters retrying past a foreign cancellation, the per-shard
// recency order and the capacity bound.
// Run under -race by make check.
func TestFlightCacheMatchesSequentialModel(t *testing.T) {
	errBoom := errors.New("boom")
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	for _, shards := range []int{1, 4} {
		for seq := int64(1); seq <= 6; seq++ {
			t.Run(fmt.Sprintf("shards=%d/seq=%d", shards, seq), func(t *testing.T) {
				c := newFlightCache[string](6, shards)
				ref := &refLRU{
					cap:    c.shards[0].cap,
					order:  make([][]string, shards),
					values: map[string]string{},
					shard: func(key string) int {
						return slices.Index(c.shards, c.shardFor(key))
					},
				}
				var fills atomic.Int64
				okFill := func(key string) func(context.Context) (string, error) {
					return func(context.Context) (string, error) {
						return fmt.Sprintf("%s#%d", key, fills.Add(1)), nil
					}
				}
				rng := rand.New(rand.NewSource(seq))
				for step := 0; step < 120; step++ {
					key := keys[rng.Intn(len(keys))]
					was := ref.contains(key)
					// contains answers like the reference for a probe key
					// the step's operation need not touch, and (checked
					// after the step) leaves the recency order alone.
					probe := keys[step*5%len(keys)]
					if got, want := c.contains(probe), ref.contains(probe); got != want {
						t.Fatalf("step %d: contains(%s) = %v, reference %v", step, probe, got, want)
					}
					before := fills.Load()
					name := fmt.Sprintf("step %d", step)
					switch op := rng.Intn(10); {
					case op < 4: // plain get
						name += " get " + key
						v, resident, err := c.get(context.Background(), key, okFill(key))
						if err != nil || resident != was {
							t.Fatalf("%s: resident=%v err=%v, reference resident=%v", name, resident, err, was)
						}
						if was {
							if v != ref.values[key] {
								t.Fatalf("%s: got %q, reference %q", name, v, ref.values[key])
							}
							ref.touch(key)
						} else {
							ref.insert(key, v)
						}
					case op < 6: // failing fill
						name += " fail " + key
						v, resident, err := c.get(context.Background(), key, func(context.Context) (string, error) {
							fills.Add(1)
							return "", errBoom
						})
						if was {
							if err != nil || !resident || v != ref.values[key] {
								t.Fatalf("%s: resident key answered %q/%v/%v", name, v, resident, err)
							}
							ref.touch(key)
						} else {
							if !errors.Is(err, errBoom) || resident {
								t.Fatalf("%s: resident=%v err=%v, want the fill's failure", name, resident, err)
							}
							// The slot was claimed (evicting) before the
							// fill ran, then dropped.
							ref.insert(key, "")
							ref.remove(key)
						}
					case op < 7: // caller already cancelled
						name += " cancelled " + key
						ctx, cancel := context.WithCancel(context.Background())
						cancel()
						v, resident, err := c.get(ctx, key, func(ctx context.Context) (string, error) {
							fills.Add(1)
							return "", ctx.Err()
						})
						if was {
							if err != nil || !resident || v != ref.values[key] {
								t.Fatalf("%s: resident key answered %q/%v/%v", name, v, resident, err)
							}
							ref.touch(key)
						} else {
							// A dead caller's own cancellation is final: no retry.
							if !errors.Is(err, context.Canceled) || resident {
								t.Fatalf("%s: resident=%v err=%v, want context.Canceled", name, resident, err)
							}
							ref.insert(key, "")
							ref.remove(key)
						}
					default: // one initiator plus concurrent waiters
						foreignCancel := op >= 8
						name += fmt.Sprintf(" waiters(cancel=%v) %s", foreignCancel, key)
						if was {
							// Concurrent readers of a resident key all hit.
							var wg sync.WaitGroup
							errc := make(chan error, 3)
							for w := 0; w < 3; w++ {
								wg.Add(1)
								go func() {
									defer wg.Done()
									v, resident, err := c.get(context.Background(), key, okFill(key))
									if err != nil || !resident || v != ref.values[key] {
										errc <- fmt.Errorf("%s: concurrent hit answered %q/%v/%v", name, v, resident, err)
									}
								}()
							}
							wg.Wait()
							close(errc)
							for err := range errc {
								t.Fatal(err)
							}
							ref.touch(key)
							break
						}
						vs, wantFills := runWaiters(t, c, key, foreignCancel, okFill(key), &fills)
						if got := fills.Load() - before; got != wantFills {
							t.Fatalf("%s: %d fills, want %d", name, got, wantFills)
						}
						ref.insert(key, vs)
						if foreignCancel {
							ref.remove(key)
							ref.insert(key, vs)
						}
						ref.checkAgainst(t, c, name)
						continue
					}
					// One fill per absent key, none for a resident one.
					wantFills := int64(1)
					if was {
						wantFills = 0
					}
					if got := fills.Load() - before; got != wantFills {
						t.Fatalf("%s: %d fills, want %d", name, got, wantFills)
					}
					ref.checkAgainst(t, c, name)
				}
			})
		}
	}
}

// runWaiters starts a blocking flight for the absent key, parks three
// live waiters on it, then either releases the flight (it succeeds) or
// cancels the initiator's context (its fill dies of the cancellation,
// which is not the waiters' error, so they retry). It checks that
// every waiter shares one value and returns that value and the number
// of fills the scenario must have cost.
func runWaiters(t *testing.T, c *flightCache[string], key string, foreignCancel bool, okFill func(context.Context) (string, error), fills *atomic.Int64) (string, int64) {
	t.Helper()
	const waiters = 3
	ictx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started, release := make(chan struct{}), make(chan struct{})
	type result struct {
		v        string
		resident bool
		err      error
	}
	initc := make(chan result, 1)
	go func() {
		v, resident, err := c.get(ictx, key, func(ctx context.Context) (string, error) {
			n := fills.Add(1)
			close(started)
			select {
			case <-release:
				return fmt.Sprintf("%s#%d", key, n), nil
			case <-ctx.Done():
				return "", ctx.Err()
			}
		})
		initc <- result{v, resident, err}
	}()
	<-started
	var wg sync.WaitGroup
	res := make([]result, waiters)
	for w := range res {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, resident, err := c.get(context.Background(), key, okFill)
			res[w] = result{v, resident, err}
		}(w)
	}
	// Give the waiters time to park on the flight; a late waiter would
	// start or join the retry flight instead, which the assertions
	// below accept as well.
	time.Sleep(2 * time.Millisecond)
	if foreignCancel {
		cancel()
	} else {
		close(release)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters still running after 10s: a retry loop that never ends?")
	}
	init := <-initc
	want := init.v
	if foreignCancel {
		if !errors.Is(init.err, context.Canceled) || init.resident {
			t.Fatalf("cancelled initiator: resident=%v err=%v", init.resident, init.err)
		}
		want = res[0].v
	} else if init.err != nil || init.resident {
		t.Fatalf("initiator: resident=%v err=%v, want its own fresh fill", init.resident, init.err)
	}
	for w, r := range res {
		if r.err != nil || r.v != want {
			t.Fatalf("waiter %d: %q/%v, want %q shared by every waiter", w, r.v, r.err, want)
		}
		if !foreignCancel && !r.resident {
			t.Fatalf("waiter %d coalesced onto the flight but reported it absent", w)
		}
	}
	if foreignCancel {
		return want, 2 // the cancelled flight plus one retry
	}
	return want, 1
}
