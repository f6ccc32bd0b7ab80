package pegasus

import (
	"math/rand"
	"strconv"

	"repro/internal/mspg"
	"repro/internal/wfdag"
)

// builder accumulates a graph while the generator assembles the matching
// M-SPG tree.
type builder struct {
	g   *wfdag.Graph
	rng *rand.Rand
	seq int
}

func newBuilder(seed int64) *builder {
	return &builder{g: wfdag.New(), rng: rand.New(rand.NewSource(seed))}
}

// itoa formats a task ID the way %d does. Names are built by
// concatenation rather than fmt: they are a large share of a cold
// plan's allocations.
func itoa(t wfdag.TaskID) string { return strconv.Itoa(int(t)) }

// task creates one task of the given profile and returns both its ID and
// an Atomic tree node.
func (b *builder) task(p profile) (wfdag.TaskID, *mspg.Node) {
	b.seq++
	id := b.g.AddTask(p.kind+"_"+strconv.Itoa(b.seq), p.kind, p.drawRuntime(b.rng))
	return id, mspg.NewAtomic(id)
}

// tasks creates count tasks of the given profile.
func (b *builder) tasks(p profile, count int) ([]wfdag.TaskID, []*mspg.Node) {
	ids := make([]wfdag.TaskID, count)
	nodes := make([]*mspg.Node, count)
	for i := range ids {
		ids[i], nodes[i] = b.task(p)
	}
	return ids, nodes
}

// input attaches a workflow input file of the given mean size to task t.
func (b *builder) input(t wfdag.TaskID, name string, meanBytes, cv float64) {
	f := b.g.AddFile(name, truncNormal(b.rng, meanBytes, cv), wfdag.NoTask)
	b.g.AddDependency(t, f)
}

// sharedInput attaches one workflow input file read by every task in ts.
func (b *builder) sharedInput(ts []wfdag.TaskID, name string, meanBytes, cv float64) {
	f := b.g.AddFile(name, truncNormal(b.rng, meanBytes, cv), wfdag.NoTask)
	for _, t := range ts {
		b.g.AddDependency(t, f)
	}
}

// output registers a consumer-less (workflow output) file produced by t.
func (b *builder) output(t wfdag.TaskID, p profile) {
	b.g.AddFile("out_"+p.kind+"_"+itoa(t), p.drawBytes(b.rng), t)
}

// wireSerial realizes the M-SPG serial composition between a producer
// set and a consumer set on the data level: every producer emits ONE
// file (drawn from its profile) that every consumer reads — the complete
// bipartite sinks×sources dependency required by the ;→ operator, with
// the file shared across consumers (so checkpoints pay it once).
func (b *builder) wireSerial(producers []wfdag.TaskID, pp profile, consumers []wfdag.TaskID) {
	for _, u := range producers {
		f := b.g.AddFile("f_"+pp.kind+"_"+itoa(u), pp.drawBytes(b.rng), u)
		for _, v := range consumers {
			b.g.AddDependency(v, f)
		}
	}
}

// wireOne connects u -> v with a fresh file from u's profile.
func (b *builder) wireOne(u wfdag.TaskID, pp profile, v wfdag.TaskID) {
	f := b.g.AddFile("f_"+pp.kind+"_"+itoa(u)+"_"+itoa(v), pp.drawBytes(b.rng), u)
	b.g.AddDependency(v, f)
}

// chainNodes builds Serial over per-task atoms with 1:1 wiring.
func (b *builder) chain(profiles []profile) ([]wfdag.TaskID, *mspg.Node) {
	ids := make([]wfdag.TaskID, len(profiles))
	nodes := make([]*mspg.Node, len(profiles))
	for i, p := range profiles {
		ids[i], nodes[i] = b.task(p)
		if i > 0 {
			b.wireOne(ids[i-1], profiles[i-1], ids[i])
		}
	}
	return ids, mspg.NewSerial(nodes...)
}
