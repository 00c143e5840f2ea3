package recovery

import "testing"

// TestRequestStopFromAnotherGoroutine: RequestStop is the one Controller
// method a signal handler calls from outside the attempt's goroutine. An
// attempt that steps until told to stop must end stopped with that cause;
// under -race, nothing else the attempt touches may be shared.
func TestRequestStopFromAnotherGoroutine(t *testing.T) {
	live := make(chan *Controller, 1)
	go func() { (<-live).RequestStop("signal:interrupt") }()
	steps, out, err := Supervise(Config{OnAttempt: func(c *Controller) { live <- c }},
		func(_ *Resume, ctl *Controller) (int, error) {
			for step := 0; ; step++ {
				if ctl.StepDone(step, 0, 0, Meta{Step: step + 1}, nil) == Stop {
					return step + 1, nil
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusStopped || out.StopCause != "signal:interrupt" || out.Attempts != 1 || steps < 1 {
		t.Fatalf("outcome %+v after %d step(s), want a stop for signal:interrupt in one attempt", out, steps)
	}
}
