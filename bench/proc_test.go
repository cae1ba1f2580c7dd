package main

import (
	"os/exec"
	"testing"
)

// A child without a SIGINT handler dies of the signal itself, as serve
// does when it is stopped before it has installed its own. Only an
// early stop may let that pass.
func TestStopToleratesTheSignalOnlyWhenEarly(t *testing.T) {
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary")
	}
	for _, early := range []bool{true, false} {
		c, err := startChild("sleep", sleep, "30")
		if err != nil {
			t.Fatal(err)
		}
		err = c.stop(early)
		if early && err != nil {
			t.Errorf("early stop: %v", err)
		}
		if !early && err == nil {
			t.Error("a child killed by SIGINT passed as a clean exit")
		}
	}
	if err := (&child{name: "gone", done: closed()}).stop(true); err == nil {
		t.Error("stopping a child that had already exited must fail")
	}
}

func closed() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}
