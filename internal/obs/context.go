package obs

import "context"

type ctxKey struct{}

// ctxState is the pair a context carries: the journal to record into and the
// current span position to parent children under.
type ctxState struct {
	j      *Journal
	parent SpanContext
}

// NewContext returns ctx carrying j as the active journal. Instrumented code
// below this point records spans into j; a nil j is valid and leaves every
// downstream StartSpan on the one-nil-check disabled path.
func NewContext(ctx context.Context, j *Journal) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxState{j: j})
}

// WithParent returns ctx with the parenting position replaced — used when a
// span context arrived out-of-band (an RPC envelope, a job spec) rather than
// from an in-process parent span.
func WithParent(ctx context.Context, parent SpanContext) context.Context {
	st, _ := ctx.Value(ctxKey{}).(ctxState)
	st.parent = parent
	return context.WithValue(ctx, ctxKey{}, st)
}

// StartSpan opens a span parented under ctx's current position and returns a
// derived context under which children parent to the new span. With no
// journal in ctx it returns (ctx, nil) — the free disabled path, with no
// allocation and no clock read — and the nil span's methods are all no-ops.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	st, _ := ctx.Value(ctxKey{}).(ctxState)
	if st.j == nil {
		return ctx, nil
	}
	s := st.j.Start(st.parent, name, attrs...)
	return context.WithValue(ctx, ctxKey{}, ctxState{j: st.j, parent: s.Context()}), s
}
