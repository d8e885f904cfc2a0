package service

import "context"

// WaitCtx is Wait bounded by a context: it returns the job's result when
// the job finishes first, or the context's error when the deadline or
// cancellation wins — so a client can never hang forever on a job whose
// executor died. The job itself keeps running either way.
func (s *Scheduler) WaitCtx(ctx context.Context, j *Job) (*Result, error) {
	select {
	case <-j.Done():
		return s.Wait(j)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
