package dataset

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/simrand"
)

func sampleData() *Dataset {
	d := &Dataset{}
	macs := []string{"02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03"}
	ssids := []string{"net-a", "net-a", "net-b"}
	for i := 0; i < 60; i++ {
		mac := macs[i%3]
		d.Add(Sample{
			UAV:      map[bool]string{true: "A", false: "B"}[i%2 == 0],
			Waypoint: i % 6,
			Time:     time.Duration(i) * time.Second,
			X:        float64(i%4) * 0.9, Y: float64(i%5) * 0.6, Z: 1.0,
			TrueX: float64(i%4) * 0.9, TrueY: float64(i%5) * 0.6, TrueZ: 1.0,
			MAC: mac, SSID: ssids[i%3], RSSI: -60 - i%30, Channel: 1 + i%13,
		})
	}
	return d
}

func TestStats(t *testing.T) {
	d := sampleData()
	s := d.Stats()
	if s.Total != 60 {
		t.Errorf("Total = %d", s.Total)
	}
	if s.PerUAV["A"] != 30 || s.PerUAV["B"] != 30 {
		t.Errorf("PerUAV = %v", s.PerUAV)
	}
	if s.DistinctMACs != 3 {
		t.Errorf("DistinctMACs = %d", s.DistinctMACs)
	}
	if s.DistinctSSIDs != 2 {
		t.Errorf("DistinctSSIDs = %d", s.DistinctSSIDs)
	}
	if s.MeanRSSI >= -60 || s.MeanRSSI <= -90 {
		t.Errorf("MeanRSSI = %v", s.MeanRSSI)
	}
}

func TestStatsEmpty(t *testing.T) {
	d := &Dataset{}
	s := d.Stats()
	if s.Total != 0 || s.MeanRSSI != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestCountPerWaypoint(t *testing.T) {
	d := sampleData()
	counts := d.CountPerWaypoint()
	if len(counts) != 2 {
		t.Fatalf("UAV count = %d", len(counts))
	}
	totalA := 0
	for _, n := range counts["A"] {
		totalA += n
	}
	if totalA != 30 {
		t.Errorf("A waypoint counts sum to %d", totalA)
	}
}

func TestHistogram(t *testing.T) {
	d := sampleData()
	bins, err := d.Histogram(AxisX, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range bins {
		total += b.Count
		if b.Hi-b.Lo != 0.5 {
			t.Errorf("bin width = %v", b.Hi-b.Lo)
		}
	}
	if total != 60 {
		t.Errorf("histogram total = %d", total)
	}
	// Bins must tile contiguously.
	for i := 1; i < len(bins); i++ {
		if bins[i].Lo != bins[i-1].Hi {
			t.Errorf("gap between bins %d and %d", i-1, i)
		}
	}
}

func TestHistogramValidation(t *testing.T) {
	d := sampleData()
	if _, err := d.Histogram(AxisX, 0); err == nil {
		t.Error("zero bin width accepted")
	}
	empty := &Dataset{}
	bins, err := empty.Histogram(AxisY, 0.5)
	if err != nil || bins != nil {
		t.Errorf("empty histogram = %v, %v", bins, err)
	}
}

func TestAxisString(t *testing.T) {
	if AxisX.String() != "x" || AxisY.String() != "y" || AxisZ.String() != "z" {
		t.Error("axis strings wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sampleData()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("round trip length %d, want %d", back.Len(), d.Len())
	}
	for i := range d.Samples {
		if d.Samples[i] != back.Samples[i] {
			t.Fatalf("sample %d mismatch:\n got %+v\nwant %+v", i, back.Samples[i], d.Samples[i])
		}
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong header": "a,b,c\n",
		"short header": "uav,waypoint\n",
		"bad waypoint": "uav,waypoint,time_us,x,y,z,true_x,true_y,true_z,mac,ssid,rssi,channel\nA,xx,0,0,0,0,0,0,0,m,s,-70,6\n",
		"bad rssi":     "uav,waypoint,time_us,x,y,z,true_x,true_y,true_z,mac,ssid,rssi,channel\nA,0,0,0,0,0,0,0,0,m,s,zz,6\n",
		"bad float":    "uav,waypoint,time_us,x,y,z,true_x,true_y,true_z,mac,ssid,rssi,channel\nA,0,0,q,0,0,0,0,0,m,s,-70,6\n",
		"bad time":     "uav,waypoint,time_us,x,y,z,true_x,true_y,true_z,mac,ssid,rssi,channel\nA,0,q,0,0,0,0,0,0,m,s,-70,6\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMACsSorted(t *testing.T) {
	d := sampleData()
	macs := d.MACs()
	if len(macs) != 3 {
		t.Fatalf("MACs = %v", macs)
	}
	for i := 1; i < len(macs); i++ {
		if macs[i] <= macs[i-1] {
			t.Error("MACs not sorted")
		}
	}
}

func TestShuffleKeepsAll(t *testing.T) {
	d := sampleData()
	before := d.Stats()
	d.Shuffle(simrand.New(5))
	after := d.Stats()
	if before.Total != after.Total || before.MeanRSSI != after.MeanRSSI {
		t.Error("shuffle changed content")
	}
}

func TestPreprocessDropsRareMACs(t *testing.T) {
	d := sampleData() // 3 MACs × 20 samples each
	// Add a rare MAC with 5 samples.
	for i := 0; i < 5; i++ {
		d.Add(Sample{UAV: "A", MAC: "02:00:00:00:00:99", SSID: "rare", RSSI: -80, Channel: 6})
	}
	p, err := Preprocess(d, MinSamplesPerMAC)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dropped != 5 {
		t.Errorf("Dropped = %d, want 5", p.Dropped)
	}
	if len(p.Rows) != 60 {
		t.Errorf("retained = %d, want 60", len(p.Rows))
	}
	if len(p.MACs) != 3 {
		t.Errorf("vocabulary = %v", p.MACs)
	}
}

func TestPreprocessValidation(t *testing.T) {
	if _, err := Preprocess(&Dataset{}, 16); err == nil {
		t.Error("empty dataset accepted")
	}
	d := sampleData()
	if _, err := Preprocess(d, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := Preprocess(d, 1000); err == nil {
		t.Error("impossible threshold accepted")
	}
}

func TestDesignMatrixEncodings(t *testing.T) {
	d := sampleData()
	p, err := Preprocess(d, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinates only.
	x, y := p.DesignMatrix(FeatureOptions{})
	if len(x) != len(p.Rows) || len(y) != len(p.Rows) {
		t.Fatal("matrix size mismatch")
	}
	if len(x[0]) != 3 {
		t.Errorf("xyz-only dim = %d", len(x[0]))
	}

	// xyz + one-hot MAC (the paper's kNN features).
	opt := FeatureOptions{OneHotMACScale: 1}
	x, _ = p.DesignMatrix(opt)
	if len(x[0]) != 3+len(p.MACs) {
		t.Errorf("mac-encoded dim = %d, want %d", len(x[0]), 3+len(p.MACs))
	}
	// Exactly one hot element per row, equal to the scale.
	for _, row := range x {
		hot := 0
		for _, v := range row[3:] {
			if v != 0 {
				hot++
				if v != 1 {
					t.Errorf("one-hot value = %v, want 1", v)
				}
			}
		}
		if hot != 1 {
			t.Fatalf("row has %d hot MAC entries", hot)
		}
	}

	// Scaled one-hot (paper's best variant uses ×3).
	opt = FeatureOptions{OneHotMACScale: 3}
	x, _ = p.DesignMatrix(opt)
	for _, row := range x {
		for _, v := range row[3:] {
			if v != 0 && v != 3 {
				t.Fatalf("scaled one-hot value = %v, want 3", v)
			}
		}
	}
	if len(x[0]) != p.FeatureDim(opt) {
		t.Error("design matrix dim disagrees with FeatureDim")
	}
}

func TestSplit(t *testing.T) {
	d := sampleData()
	p, _ := Preprocess(d, 1)
	train, test, err := p.Split(0.75, simrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Rows)+len(test.Rows) != len(p.Rows) {
		t.Error("split lost rows")
	}
	if len(train.Rows) != 45 {
		t.Errorf("train size = %d, want 45 (75%% of 60)", len(train.Rows))
	}
	// Vocabularies must be shared, not recomputed.
	if &train.MACs[0] != &p.MACs[0] {
		t.Error("train vocabulary reallocated; must share the parent's")
	}
}

func TestSplitValidation(t *testing.T) {
	d := sampleData()
	p, _ := Preprocess(d, 1)
	if _, _, err := p.Split(0, simrand.New(1)); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, _, err := p.Split(1, simrand.New(1)); err == nil {
		t.Error("fraction 1 accepted")
	}
	tiny := &Preprocessed{Rows: []Row{{}}}
	if _, _, err := tiny.Split(0.5, simrand.New(1)); err == nil {
		t.Error("single-row split accepted")
	}
}

func TestSplitDeterministic(t *testing.T) {
	d := sampleData()
	p, _ := Preprocess(d, 1)
	tr1, _, _ := p.Split(0.75, simrand.New(42))
	tr2, _, _ := p.Split(0.75, simrand.New(42))
	for i := range tr1.Rows {
		if tr1.Rows[i] != tr2.Rows[i] {
			t.Fatal("split not deterministic")
		}
	}
}
