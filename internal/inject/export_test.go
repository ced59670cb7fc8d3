package inject

// OnReconverge installs h as the hook called with the checkpoint step of
// every injection that reconverges with the fault-free run, and returns a
// func that restores the previous hook. Campaigns call the hook from their
// workers, so h must be safe for concurrent calls.
func OnReconverge(h func(step uint64)) (restore func()) {
	old := testHookReconverged
	testHookReconverged = h
	return func() { testHookReconverged = old }
}
