package dataset

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simrand"
)

// sanitizeField strips characters the CSV layer would alter semantically is
// NOT needed — encoding/csv quotes everything properly. The property test
// therefore feeds raw strings straight through.
func TestCSVQuickRoundTrip(t *testing.T) {
	f := func(uavName, mac, ssid string, wp uint8, rssi int8, channel uint8, x, y, z float64) bool {
		// NaN/Inf are not representable in the CSV schema by design.
		if x != x || y != y || z != z {
			return true
		}
		if x > 1e15 || x < -1e15 || y > 1e15 || y < -1e15 || z > 1e15 || z < -1e15 {
			return true
		}
		// Strip the CR/LF the csv reader normalises inside quoted fields.
		clean := func(s string) string {
			return strings.NewReplacer("\r", "", "\n", "").Replace(s)
		}
		d := &Dataset{}
		d.Add(Sample{
			UAV:      clean(uavName),
			Waypoint: int(wp),
			Time:     time.Duration(wp) * time.Second,
			X:        x, Y: y, Z: z,
			TrueX: x, TrueY: y, TrueZ: z,
			MAC:  clean(mac),
			SSID: clean(ssid),
			RSSI: int(rssi), Channel: int(channel),
		})
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Logf("read error: %v", err)
			return false
		}
		return back.Len() == 1 && back.Samples[0] == d.Samples[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPreprocessQuickConservation: for any dataset, dropped + retained must
// equal the total, and every retained row's MAC index must be valid.
func TestPreprocessQuickConservation(t *testing.T) {
	f := func(seed uint16, nMACs, perMAC uint8) bool {
		macs := int(nMACs)%6 + 1
		per := int(perMAC)%30 + 1
		rng := simrand.New(uint64(seed))
		d := &Dataset{}
		for m := 0; m < macs; m++ {
			count := per + m // vary counts so some MACs fall under threshold
			for i := 0; i < count; i++ {
				d.Add(Sample{
					UAV: "A", MAC: string(rune('a' + m)), SSID: "s",
					X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64(),
					RSSI: -60 - rng.Intn(30), Channel: 1 + rng.Intn(13),
				})
			}
		}
		p, err := Preprocess(d, 8)
		if err != nil {
			// Legitimate when every MAC is under threshold.
			return per+macs-1 < 8
		}
		if p.Dropped+len(p.Rows) != d.Len() {
			return false
		}
		for _, r := range p.Rows {
			if r.MACIndex < 0 || r.MACIndex >= len(p.MACs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSplitQuickConservation: any valid split partitions the rows exactly.
func TestSplitQuickConservation(t *testing.T) {
	f := func(seed uint16, n uint8, fracRaw uint8) bool {
		rows := int(n)%60 + 2
		frac := 0.1 + 0.8*float64(fracRaw)/255
		p := &Preprocessed{MACs: []string{"m"}}
		for i := 0; i < rows; i++ {
			p.Rows = append(p.Rows, Row{Pos: [3]float64{float64(i), 0, 0}, RSSI: float64(-i)})
		}
		train, test, err := p.Split(frac, simrand.New(uint64(seed)))
		if err != nil {
			return false
		}
		if len(train.Rows)+len(test.Rows) != rows {
			return false
		}
		if len(train.Rows) == 0 || len(test.Rows) == 0 {
			return false
		}
		// No row lost or duplicated: positions were unique.
		seen := map[float64]bool{}
		for _, r := range train.Rows {
			seen[r.Pos[0]] = true
		}
		for _, r := range test.Rows {
			if seen[r.Pos[0]] {
				return false // duplicated across splits
			}
			seen[r.Pos[0]] = true
		}
		return len(seen) == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
