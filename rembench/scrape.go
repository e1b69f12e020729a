package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one parse of a Prometheus text exposition: every sample
// value by its series ("name" or "name{labels}").
type scrape map[string]float64

// fetchScrape reads GET /metrics from base.
func fetchScrape(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	return parseScrape(body)
}

// parseScrape parses the sample lines of a text exposition; comments and
// blank lines are skipped.
func parseScrape(body []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named metric, across label sets.
func (s scrape) sum(name string) float64 {
	var total float64
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// mean is the average of every series of name, or 0 when absent.
func (s scrape) mean(name string) float64 {
	var total float64
	n := 0
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
			n++
		}
	}
	return ratio(total, float64(n))
}

// histDelta is a histogram's growth between two scrapes: observations
// and their summed seconds, across label sets.
func histDelta(before, after scrape, name string) (count, sumSeconds float64) {
	return after.sum(name+"_count") - before.sum(name+"_count"),
		after.sum(name+"_sum") - before.sum(name+"_sum")
}

// histMean is the mean observation of a histogram between two scrapes,
// scaled from seconds by unit (1e3 for ms, 1e6 for µs); 0 when nothing
// was observed.
func histMean(before, after scrape, name string, unit float64) float64 {
	n, sum := histDelta(before, after, name)
	return ratio(sum*unit, n)
}
