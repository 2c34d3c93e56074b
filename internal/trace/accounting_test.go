package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestAccountingRoundTrip(t *testing.T) {
	d := testDataset()
	var buf bytes.Buffer
	if err := d.WriteAccounting(&buf); err != nil {
		t.Fatal(err)
	}
	var got Dataset
	if err := got.ReadAccounting(&buf); err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(d.Jobs) {
		t.Fatalf("jobs = %d, want %d", len(got.Jobs), len(d.Jobs))
	}
	for i := range d.Jobs {
		want, have := &d.Jobs[i], &got.Jobs[i]
		if want.ID != have.ID || want.User != have.User || want.App != have.App ||
			want.Nodes != have.Nodes || want.ReqWall != have.ReqWall {
			t.Errorf("job %d mismatch:\nwant %+v\ngot  %+v", i, want, have)
		}
		if !want.Submit.Equal(have.Submit) || !want.Start.Equal(have.Start) || !want.End.Equal(have.End) {
			t.Errorf("job %d time mismatch", i)
		}
		// Accounting logs carry no power data.
		if have.AvgPowerPerNode != 0 || have.Energy != 0 {
			t.Errorf("job %d: power fields leaked into accounting", i)
		}
	}
}

func TestAccountingStates(t *testing.T) {
	d := testDataset()
	// Make job 1 run into its walltime: TIMEOUT.
	d.Jobs[0].End = d.Jobs[0].Start.Add(d.Jobs[0].ReqWall)
	var buf bytes.Buffer
	if err := d.WriteAccounting(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "|TIMEOUT") {
		t.Errorf("timeout state missing:\n%s", out)
	}
	if !strings.Contains(out, "|COMPLETED") {
		t.Errorf("completed state missing:\n%s", out)
	}
}

func TestAccountingBadInput(t *testing.T) {
	header := strings.Join(sacctHeader, "|")
	cases := []struct {
		name string
		body string
	}{
		{"bad header", "Nope|Header\n1|u|a|x|x|x|01:00:00|1|COMPLETED\n"},
		{"short line", header + "\n1|u|a\n"},
		{"bad id", header + "\nX|u|a|2018-10-01T00:00:00|2018-10-01T00:00:00|2018-10-01T01:00:00|01:00:00|1|COMPLETED\n"},
		{"bad time", header + "\n1|u|a|yesterday|2018-10-01T00:00:00|2018-10-01T01:00:00|01:00:00|1|COMPLETED\n"},
		{"bad limit", header + "\n1|u|a|2018-10-01T00:00:00|2018-10-01T00:00:00|2018-10-01T01:00:00|forever|1|COMPLETED\n"},
		{"bad nodes", header + "\n1|u|a|2018-10-01T00:00:00|2018-10-01T00:00:00|2018-10-01T01:00:00|01:00:00|x|COMPLETED\n"},
		{"bad state", header + "\n1|u|a|2018-10-01T00:00:00|2018-10-01T00:00:00|2018-10-01T01:00:00|01:00:00|1|SLEEPING\n"},
	}
	for _, c := range cases {
		var d Dataset
		if err := d.ReadAccounting(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestTimelimitFormat(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{90 * time.Minute, "01:30:00"},
		{time.Hour, "01:00:00"},
		{26*time.Hour + 3*time.Minute + 4*time.Second, "1-02:03:04"},
		{72 * time.Hour, "3-00:00:00"},
	}
	for _, c := range cases {
		if got := formatTimelimit(c.d); got != c.want {
			t.Errorf("formatTimelimit(%v) = %q, want %q", c.d, got, c.want)
		}
		back, err := parseTimelimit(c.want)
		if err != nil || back != c.d {
			t.Errorf("parseTimelimit(%q) = %v, %v", c.want, back, err)
		}
	}
	// MM:SS form.
	if got, err := parseTimelimit("30:00"); err != nil || got != 30*time.Minute {
		t.Errorf("parseTimelimit(30:00) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "1:2:3:4", "x-00:00:00", "aa:bb"} {
		if _, err := parseTimelimit(bad); err == nil {
			t.Errorf("parseTimelimit(%q) accepted", bad)
		}
	}
}

func TestJoinPower(t *testing.T) {
	full := testDataset()
	// Accounting-only copy (no power).
	var buf bytes.Buffer
	if err := full.WriteAccounting(&buf); err != nil {
		t.Fatal(err)
	}
	var acct Dataset
	if err := acct.ReadAccounting(&buf); err != nil {
		t.Fatal(err)
	}
	joined := acct.JoinPower(full)
	if joined != len(full.Jobs) {
		t.Fatalf("joined %d of %d", joined, len(full.Jobs))
	}
	for i := range acct.Jobs {
		if acct.Jobs[i].AvgPowerPerNode != full.Jobs[i].AvgPowerPerNode {
			t.Errorf("job %d power not joined", i)
		}
	}
	// Unknown IDs are left untouched.
	var other Dataset
	other.Jobs = []Job{{ID: 999}}
	if n := other.JoinPower(full); n != 0 {
		t.Errorf("joined %d unknown jobs", n)
	}
}
