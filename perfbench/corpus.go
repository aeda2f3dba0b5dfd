package main

import (
	"strconv"

	"repro/internal/etc"
	"repro/internal/rng"
)

// heuristics the corpora cycle through: the paper's batch heuristics run
// under the iterative technique.
var heuristicNames = []string{"min-min", "max-min", "duplex", "sufferage"}

// corpus synthesizes /v1/iterate bodies deterministically: body i depends
// only on the run seed, the corpus namespace and i. Instance i belongs to
// Braun class i%12 and heuristic (i/12)%4, so every 48 consecutive bodies
// cover the 12 classes × 4 heuristics once.
type corpus struct {
	base            uint64
	tasks, machines int
}

// newCorpus returns the corpus for a run seed. The namespace keeps the
// corpora of different workloads apart.
func newCorpus(seed uint64, namespace string, tasks, machines int) corpus {
	h := uint64(14695981039346656037)
	for i := 0; i < len(namespace); i++ {
		h ^= uint64(namespace[i])
		h *= 1099511628211
	}
	return corpus{base: rng.New(seed ^ h).Uint64(), tasks: tasks, machines: machines}
}

// class and heuristic of body i.
func (c corpus) class(i int64) etc.Class {
	cs := etc.AllClasses()
	return cs[i%int64(len(cs))]
}

func (c corpus) heuristic(i int64) string {
	return heuristicNames[(i/12)%int64(len(heuristicNames))]
}

// matrix returns instance i's ETC matrix.
func (c corpus) matrix(i int64) (*etc.Matrix, error) {
	return etc.GenerateClass(c.class(i), c.tasks, c.machines, rng.New(c.base^uint64(i)))
}

// appendBody appends body i to dst and returns the extended slice. The
// encoding is the shortest round-trip form of every entry, so a server
// decodes exactly the generated matrix.
func (c corpus) appendBody(dst []byte, i int64) ([]byte, error) {
	m, err := c.matrix(i)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `{"etc":[`...)
	for t, row := range m.Values() {
		if t > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"heuristic":"`...)
	dst = append(dst, c.heuristic(i)...)
	dst = append(dst, `"}`...)
	return dst, nil
}

// bodies returns bodies [lo, hi) as separate slices.
func (c corpus) bodies(lo, hi int64) ([][]byte, error) {
	out := make([][]byte, 0, hi-lo)
	for i := lo; i < hi; i++ {
		b, err := c.appendBody(nil, i)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
