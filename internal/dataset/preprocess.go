package dataset

import (
	"fmt"
	"sort"

	"repro/internal/simrand"
)

// MinSamplesPerMAC is the paper's retention threshold: MAC addresses with
// fewer than 16 samples are dropped, "since the goal was to predict RSS
// values of APs with a sufficient number of measurements" (§III-B). On the
// paper's data this keeps 2565 of 2696 samples.
const MinSamplesPerMAC = 16

// Row is one preprocessed training example.
type Row struct {
	// Pos is the annotated 3-D position.
	Pos [3]float64
	// MACIndex is the index into the one-hot MAC vocabulary.
	MACIndex int
	// RSSI is the regression target in dBm.
	RSSI float64
}

// Preprocessed is the ML-ready dataset. Timestamps and SSIDs are
// deliberately absent: the paper discards SSIDs (shared between devices)
// and timestamps (the collection window is under 10 minutes).
type Preprocessed struct {
	// Rows are the retained examples.
	Rows []Row
	// MACs is the one-hot vocabulary, sorted for determinism; MACIndex
	// refers into it.
	MACs []string
	// Dropped is the number of samples removed by the MAC threshold
	// (paper: 131).
	Dropped int
}

// Preprocess applies the paper's §III-B pipeline: group by MAC, drop MACs
// with fewer than minPerMAC samples, and build the MAC vocabulary for
// one-hot encoding.
func Preprocess(d *Dataset, minPerMAC int) (*Preprocessed, error) {
	if minPerMAC < 1 {
		return nil, fmt.Errorf("dataset: minPerMAC must be ≥1, got %d", minPerMAC)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("dataset: nothing to preprocess")
	}
	counts := map[string]int{}
	for _, s := range d.Samples {
		counts[s.MAC]++
	}
	keep := map[string]bool{}
	var macs []string
	for mac, n := range counts {
		if n >= minPerMAC {
			keep[mac] = true
			macs = append(macs, mac)
		}
	}
	if len(macs) == 0 {
		return nil, fmt.Errorf("dataset: no MAC reaches the %d-sample threshold", minPerMAC)
	}
	sort.Strings(macs)
	macIdx := make(map[string]int, len(macs))
	for i, m := range macs {
		macIdx[m] = i
	}

	p := &Preprocessed{MACs: macs}
	for _, s := range d.Samples {
		if !keep[s.MAC] {
			p.Dropped++
			continue
		}
		p.Rows = append(p.Rows, Row{
			Pos:      [3]float64{s.X, s.Y, s.Z},
			MACIndex: macIdx[s.MAC],
			RSSI:     float64(s.RSSI),
		})
	}
	return p, nil
}

// FeatureOptions selects the feature encoding for a design matrix.
type FeatureOptions struct {
	// OneHotMACScale multiplies the one-hot MAC block; the paper's best
	// kNN uses 3 so that samples from different MACs sit farther apart.
	// Zero omits the MAC block entirely.
	OneHotMACScale float64
}

// FeatureDim returns the dimensionality the options produce.
func (p *Preprocessed) FeatureDim(opt FeatureOptions) int {
	dim := 3
	if opt.OneHotMACScale != 0 {
		dim += len(p.MACs)
	}
	return dim
}

// DesignMatrix materialises features X and targets y under the given
// encoding.
func (p *Preprocessed) DesignMatrix(opt FeatureOptions) (x [][]float64, y []float64) {
	dim := p.FeatureDim(opt)
	x = make([][]float64, len(p.Rows))
	y = make([]float64, len(p.Rows))
	for i, r := range p.Rows {
		v := make([]float64, dim)
		v[0], v[1], v[2] = r.Pos[0], r.Pos[1], r.Pos[2]
		if opt.OneHotMACScale != 0 {
			v[3+r.MACIndex] = opt.OneHotMACScale
		}
		x[i] = v
		y[i] = r.RSSI
	}
	return x, y
}

// Split partitions the rows into train and test subsets with the given
// train fraction, shuffling with the provided stream (the paper uses 75/25).
func (p *Preprocessed) Split(trainFrac float64, rng *simrand.Source) (train, test *Preprocessed, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: train fraction %g outside (0, 1)", trainFrac)
	}
	if len(p.Rows) < 2 {
		return nil, nil, fmt.Errorf("dataset: need at least 2 rows to split, have %d", len(p.Rows))
	}
	perm := rng.Perm(len(p.Rows))
	nTrain := int(float64(len(p.Rows)) * trainFrac)
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain >= len(p.Rows) {
		nTrain = len(p.Rows) - 1
	}
	mk := func(idx []int) *Preprocessed {
		q := &Preprocessed{MACs: p.MACs}
		q.Rows = make([]Row, len(idx))
		for i, j := range idx {
			q.Rows[i] = p.Rows[j]
		}
		return q
	}
	return mk(perm[:nTrain]), mk(perm[nTrain:]), nil
}
