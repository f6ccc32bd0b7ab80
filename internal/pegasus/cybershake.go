package pegasus

import (
	"fmt"
	"strconv"

	"repro/internal/mspg"
	"repro/internal/wfdag"
)

// CyberShake generates a seismic-hazard workflow (Bharathi et al.
// §IV-B), simplified to its M-SPG core: per site, two ExtractSGT tasks
// produce strain Green tensors that feed a wide fan of seismogram
// syntheses; each synthesis chains into a PeakValCalc; a per-site ZipPSA
// joins the peak values. Sites are independent. The real CyberShake has
// a second join (ZipSeis) directly over the seismograms which makes the
// DAG non-M-SPG; we fold it into the single ZipPSA join (documented
// substitution — same fan-in volume, same level structure).
func CyberShake(opts Options) (*mspg.Workflow, error) {
	opts = opts.withDefaults()
	if opts.Tasks < 6 {
		return nil, fmt.Errorf("pegasus: cybershake needs at least 6 tasks, got %d", opts.Tasks)
	}
	b := newBuilder(opts.Seed)
	sites, fan := cyberShape(opts.Tasks)

	var siteNodes []*mspg.Node
	var zips []wfdag.TaskID
	for s := 0; s < sites; s++ {
		ex, exNodes := b.tasks(pExtractSGT, 2)
		for _, t := range ex {
			b.input(t, "sgt_var_"+strconv.Itoa(s)+"_"+itoa(t), 1.5e10/float64(fan), 0.2)
		}
		var chains []*mspg.Node
		var tails []wfdag.TaskID
		for i := 0; i < fan; i++ {
			ids, node := b.chain([]profile{pSeisSynth, pPeakVal})
			chains = append(chains, node)
			tails = append(tails, ids[1])
		}
		// Both SGT extractions feed every synthesis (complete bipartite).
		var heads []wfdag.TaskID
		for _, c := range chains {
			heads = append(heads, c.Sources()...)
		}
		b.wireSerial(ex, pExtractSGT, heads)
		zip, zipNode := b.task(pZipPSA)
		b.wireSerial(tails, pPeakVal, []wfdag.TaskID{zip})
		b.output(zip, pZipPSA)
		zips = append(zips, zip)
		siteNodes = append(siteNodes, mspg.NewSerial(
			mspg.NewParallel(exNodes...),
			mspg.NewParallel(chains...),
			zipNode,
		))
	}
	_ = zips
	root := mspg.NewParallel(siteNodes...)
	w := &mspg.Workflow{Name: "cybershake-" + strconv.Itoa(b.g.NumTasks()), G: b.g, Root: root}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// cyberShape picks (sites, fan) so that sites·(2+2·fan+1) ≈ n with a
// wide fan (CyberShake's hallmark).
func cyberShape(n int) (sites, fan int) {
	sites = 1 + n/200
	fan = (n/sites - 3) / 2
	if fan < 1 {
		fan = 1
	}
	return sites, fan
}
