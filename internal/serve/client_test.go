package serve

import (
	"math"
	"testing"
	"time"
)

// TestBackoffWaitClamps pins the retry-wait guarantees: every wait —
// whatever the attempt count or server advice — lands in
// [BaseDelay/2, MaxDelay], so a misbehaving server can never induce a hot
// retry loop (zero/negative/malformed Retry-After) and a huge attempt
// count can never overflow into a negative (panicking) wait.
func TestBackoffWaitClamps(t *testing.T) {
	const base, maxWait = 100 * time.Millisecond, 10 * time.Second
	floor := base / 2
	for _, tc := range []struct {
		name    string
		attempt int
		advice  time.Duration
	}{
		{"first", 1, 0},
		{"second", 2, 0},
		{"deep", 40, 0},
		{"overflow-depth", 1 << 30, 0},
		{"zero-advice", 1, 0},
		{"negative-advice", 1, -5 * time.Second},
		{"tiny-advice", 1, time.Nanosecond},
		{"huge-advice", 1, time.Hour},
	} {
		for i := 0; i < 50; i++ { // jitter is random: sample repeatedly
			wait, _ := backoffWait(base, maxWait, tc.attempt, tc.advice)
			if wait < floor || wait > maxWait {
				t.Fatalf("%s: wait %v outside [%v, %v]", tc.name, wait, floor, maxWait)
			}
		}
	}
}

// TestBackoffWaitHonorsAdvice checks that advice longer than the
// computed backoff wins (capped at MaxDelay) and shorter advice does
// not shrink the wait.
func TestBackoffWaitHonorsAdvice(t *testing.T) {
	const base, maxWait = 100 * time.Millisecond, 10 * time.Second
	wait, honored := backoffWait(base, maxWait, 1, 3*time.Second)
	if !honored || wait != 3*time.Second {
		t.Errorf("long advice: wait %v honored %v, want 3s true", wait, honored)
	}
	wait, honored = backoffWait(base, maxWait, 1, time.Hour)
	if !honored || wait != maxWait {
		t.Errorf("over-cap advice: wait %v honored %v, want %v true", wait, honored, maxWait)
	}
	if _, honored = backoffWait(base, maxWait, 8, time.Millisecond); honored {
		t.Error("short advice reported as honored")
	}
}

// TestBackoffWaitGrows checks the exponential shape below the cap: the
// attempt-4 wait floor (pre-jitter/2) exceeds the attempt-1 ceiling.
func TestBackoffWaitGrows(t *testing.T) {
	const base, maxWait = 100 * time.Millisecond, time.Hour
	var min4, max1 time.Duration = time.Hour, 0
	for i := 0; i < 200; i++ {
		w1, _ := backoffWait(base, maxWait, 1, 0)
		w4, _ := backoffWait(base, maxWait, 4, 0)
		if w1 > max1 {
			max1 = w1
		}
		if w4 < min4 {
			min4 = w4
		}
	}
	if min4 <= max1 {
		t.Errorf("no growth: attempt-1 max %v, attempt-4 min %v", max1, min4)
	}
}

// TestParseRetryAfterMalformed pins the header parser: malformed,
// negative and zero values all come back as 0 (no advice), never as a
// negative duration.
func TestParseRetryAfterMalformed(t *testing.T) {
	for _, v := range []string{"", "garbage", "-3", "1.5.2", "Tue, 29 Feb"} {
		if d := parseRetryAfter(v); d != 0 {
			t.Errorf("parseRetryAfter(%q) = %v, want 0", v, d)
		}
	}
	if d := parseRetryAfter("2"); d != 2*time.Second {
		t.Errorf("parseRetryAfter(2) = %v", d)
	}
	// Zero advice plus the backoff floor: the wait can never collapse.
	wait, honored := backoffWait(100*time.Millisecond, 10*time.Second, 1, parseRetryAfter("0"))
	if honored || wait < 50*time.Millisecond {
		t.Errorf("zero Retry-After produced wait %v (honored %v)", wait, honored)
	}
}

// TestRetryAdviceSaturates pins advice past time.Duration's range: a
// header or a structured retry_after_sec whose nanoseconds overflow
// int64 saturates, so the server asking for a longer wait gets MaxDelay
// (honored) — never a negative or short wait that falls back to the
// jittered backoff.
func TestRetryAdviceSaturates(t *testing.T) {
	const base, maxWait = 100 * time.Millisecond, 10 * time.Second
	for _, tc := range []struct {
		name   string
		advice time.Duration
	}{
		{"header 3600", parseRetryAfter("3600")},
		{"header 9223372037", parseRetryAfter("9223372037")},
		{"header 18446744074", parseRetryAfter("18446744074")},
		{"header past int64", parseRetryAfter("99999999999999999999")},
		{"retry_after_sec 9.3e9", retryAfterOf(&RequestError{Code: CodeQueueFull, RetryAfterSec: 9.3e9})},
		{"retry_after_sec 1e300", retryAfterOf(&RequestError{Code: CodeQueueFull, RetryAfterSec: 1e300})},
	} {
		if tc.advice < time.Hour {
			t.Errorf("%s: advice %v, want at least the 1h of Retry-After: 3600", tc.name, tc.advice)
		}
		for attempt := 1; attempt <= 40; attempt += 13 {
			if wait, honored := backoffWait(base, maxWait, attempt, tc.advice); wait != maxWait || !honored {
				t.Errorf("%s, attempt %d: wait %v honored %v, want %v true", tc.name, attempt, wait, honored, maxWait)
			}
		}
	}
	if d := parseRetryAfter("9223372037"); d != math.MaxInt64 {
		t.Errorf("parseRetryAfter(9223372037) = %v, want the largest Duration", d)
	}
	if d := parseRetryAfter("-99999999999999999999"); d != 0 {
		t.Errorf("parseRetryAfter of a negative past int64 = %v, want 0", d)
	}
}
