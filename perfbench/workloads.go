package main

import (
	"fmt"
	"path/filepath"
	"sort"
)

// workloadDefs builds each workload from the invocation's settings.
var workloadDefs = map[string]func(c config) workload{
	"paper-s1": func(config) workload { return paperS1{} },
	"study": func(c config) workload {
		return study{
			seed:    chipSeed(c, 1),
			cores:   []int{8, 32, 128, 256},
			widths:  []int{1, 4, 16},
			workers: c.nproc,
			first:   new([]string),
		}
	},
	"gen256-improve": func(c config) workload {
		return genImprove{seed: chipSeed(c, genDefaultSeed), cores: 256}
	},
	"socetd-mix": func(c config) workload {
		return socetdMix{
			chipSeed:     chipSeed(c, genDefaultSeed),
			campaignSeed: c.seed,
			workers:      c.nproc,
			dir:          filepath.Join(c.out, "tmp"),
			daemons:      new(int),
		}
	},
}

func chipSeed(c config, def uint64) uint64 {
	if c.chipSeed != 0 {
		return c.chipSeed
	}
	return def
}

func newWorkload(c config) (workload, error) {
	def, ok := workloadDefs[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", c.workload, workloadNames())
	}
	return def(c), nil
}

func workloadNames() []string {
	var names []string
	for n := range workloadDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
