package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunJournalRestart runs the daemon twice on one journal directory: the
// first run calibrates both links and journals them, and the second restores
// both from the journal and skips calibration.
func TestRunJournalRestart(t *testing.T) {
	args := []string{"-links", "2", "-adapt", "-journal", t.TempDir(), "-windows", "3"}

	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatalf("first run: %v\n%s", err, first.String())
	}
	for _, want := range []string{"recovered 0/2", "calibrating 2 links", "compacted and closed"} {
		if !strings.Contains(first.String(), want) {
			t.Fatalf("first run output lacks %q:\n%s", want, first.String())
		}
	}

	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatalf("second run: %v\n%s", err, second.String())
	}
	if !strings.Contains(second.String(), "recovered 2/2") {
		t.Fatalf("second run did not recover both links:\n%s", second.String())
	}
	if strings.Contains(second.String(), "calibrating") {
		t.Fatalf("second run recalibrated restored links:\n%s", second.String())
	}
	if !strings.Contains(second.String(), "scored 6 windows") {
		t.Fatalf("second run did not score 3 windows per link:\n%s", second.String())
	}
}

// TestRunJournalForeignConfig restarts the daemon on a journal written
// under another configuration: another scheme, or adaptation switched off
// or on. The restart must not stop at startup: it recovers no link,
// calibrates both, and runs to the end.
func TestRunJournalForeignConfig(t *testing.T) {
	for name, tc := range map[string]struct{ first, second []string }{
		"scheme":     {[]string{"-adapt", "-scheme", "path"}, []string{"-adapt", "-scheme", "subcarrier"}},
		"adaptation": {[]string{"-adapt"}, nil},
		"frozen":     {nil, []string{"-adapt"}},
	} {
		dir := t.TempDir()
		common := []string{"-links", "2", "-journal", dir, "-windows", "2"}
		var first bytes.Buffer
		if err := run(append(tc.first, common...), &first); err != nil {
			t.Fatalf("%s: first run: %v\n%s", name, err, first.String())
		}
		var second bytes.Buffer
		if err := run(append(tc.second, common...), &second); err != nil {
			t.Fatalf("%s: restart: %v\n%s", name, err, second.String())
		}
		for _, want := range []string{"recovered 0/2", "calibrating 2 links", "scored 4 windows"} {
			if !strings.Contains(second.String(), want) {
				t.Fatalf("%s: restart output lacks %q:\n%s", name, want, second.String())
			}
		}
	}
}

// TestRunRejectsBadFlags checks that invalid flag values are errors, not
// silently ignored settings.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fusion", "nope"}, "unknown fusion"},
		{[]string{"-links", "2", "-occupied", "3"}, "-occupied 3 out of range"},
		{[]string{"-links", "2", "-occupied", "-1"}, "-occupied -1 out of range"},
		{[]string{"-links", "2", "-chaos", "flap", "-chaos-link", "3"}, "-chaos-link 3 out of range"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
