package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The read-side end-to-end metrics are computed over the quiet slices
// of the measured window. The machine's vCPUs are shared: while the
// hypervisor runs another tenant (steal time), every request in flight
// waits. So only the slices with no more than the median steal count —
// the slices that measured this process rather than its neighbours, or
// every slice when steal does not vary — and a closed loop's rate is
// counted per unstolen second. Without /proc/stat every slice counts.

// sliceLen is the length of one slice of a measured window.
const sliceLen = 500 * time.Millisecond

// stealMeter samples the machine's cumulative CPU steal and total time
// at every slice boundary of a window.
type stealMeter struct {
	stop  chan struct{}
	done  chan struct{}
	marks [][2]float64 // (steal, total) jiffies at boundary k
}

// startSteal starts sampling now, then every slice until finish.
func startSteal(slice time.Duration) *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	t0 := time.Now()
	go func() {
		defer close(m.done)
		for k := 1; ; k++ {
			st, tot, ok := readSteal()
			if !ok {
				return
			}
			m.marks = append(m.marks, [2]float64{st, tot})
			select {
			case <-m.stop:
				return
			case <-time.After(time.Until(t0.Add(time.Duration(k) * slice))):
			}
		}
	}()
	return m
}

// finish stops sampling and returns the cumulative (steal, total)
// readings, one per boundary from the window's start (none when
// /proc/stat is unreadable).
func (m *stealMeter) finish() [][2]float64 {
	close(m.stop)
	<-m.done
	return m.marks
}

// readSteal reads the steal and total jiffies of all CPUs.
func readSteal() (steal, total float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal (guest time is
	// already inside user).
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// quiet returns the indices, in order, of the slices whose steal is no
// more than the median steal: the quieter half, or every slice when
// steal does not vary or is unknown.
func quiet(n int, steal []float64) []int {
	idx := make([]int, 0, n)
	if len(steal) < n {
		for i := 0; i < n; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	med := median(steal[:n])
	for i, s := range steal[:n] {
		if s <= med {
			idx = append(idx, i)
		}
	}
	return idx
}

// queryMetrics fills the read-side end-to-end metrics from a tally. The
// window is cut into slices by completion time, and the quiet slices
// count: the rate is their answers over their seconds, and the
// percentiles are over every request they hold. A closed loop keeps the
// vCPUs busy and answers in proportion to the CPU time it is granted, so
// its seconds are the ones the host did not steal — each slice's length
// × (1 − its steal share); an open loop's are the slices' lengths. marks
// are the steal meter's readings. It returns the slices used, with the
// p99 and the points answered per second, as a report line.
func queryMetrics(m metricSet, lt *loadTally, elapsed time.Duration, marks [][2]float64, closed bool) (string, error) {
	slice := sliceLen
	if elapsed < slice {
		slice, marks = elapsed, nil
	}
	n := int(elapsed / slice)
	var steal []float64
	for k := 0; k+1 < len(marks) && k < n; k++ {
		steal = append(steal, ratio(marks[k+1][0]-marks[k][0], marks[k+1][1]-marks[k][1]))
	}
	keep := make([]bool, n)
	var secs float64
	for _, k := range quiet(n, steal) {
		keep[k] = true
		if closed && k < len(steal) && steal[k] < 1 {
			secs += slice.Seconds() * (1 - steal[k])
		} else {
			secs += slice.Seconds()
		}
	}
	var lat []float64
	var ok, points float64
	for _, s := range lt.samples {
		k := int(time.Duration(s.endUS) * time.Microsecond / slice)
		if k >= n || !keep[k] {
			continue
		}
		if s.latNS == failedLat {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, float64(s.latNS)/1e3)
		ok++
		points += float64(s.points)
	}
	sort.Float64s(lat)
	p50, err := quantile(lat, 0.5)
	if err != nil {
		return "", fmt.Errorf("query_p50_us: %w", err)
	}
	p90, err := quantile(lat, 0.9)
	if err != nil {
		return "", fmt.Errorf("query_p90_us: %w", err)
	}
	m["query_rps"] = ok / secs
	m["query_p50_us"] = p50
	m["query_p90_us"] = p90
	line := fmt.Sprintf("%d of %d slices of %s used (%.2f s counted), %d requests", len(quiet(n, steal)), n, slice, secs, len(lat))
	// p99 is reported, not gated: it follows the host's steal.
	if p99, err := quantile(lat, 0.99); err == nil {
		line += fmt.Sprintf("; p99 %.1f us", p99)
	}
	return line + fmt.Sprintf("; points answered %.0f/s", points/secs), nil
}
