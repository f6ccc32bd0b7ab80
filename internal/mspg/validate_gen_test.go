package mspg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mspg"
	"repro/internal/pegasus"
)

// TestValidateMatchesRefGenerated holds Validate to the map-based
// reference on every mutation of generated workflows: each family at
// 50 and 300 tasks with three seeds, plus ragged LIGO.
func TestValidateMatchesRefGenerated(t *testing.T) {
	mut := rand.New(rand.NewSource(7))
	for _, fam := range pegasus.Families() {
		for _, n := range []int{50, 300} {
			for seed := int64(1); seed <= 3; seed++ {
				opts := []pegasus.Options{{Tasks: n, Seed: seed}}
				if fam == "ligo" {
					opts = append(opts, pegasus.Options{Tasks: n, Seed: seed, Ragged: true})
				}
				for _, o := range opts {
					w, err := pegasus.Generate(fam, o)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/%d/seed%d ragged=%v", fam, n, seed, o.Ragged)
					mspg.CheckValidateAgainstRef(t, name, w, mut)
				}
			}
		}
	}
}
