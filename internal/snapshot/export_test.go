package snapshot

// LayoutOf exposes the layout the view revision stamps, so a test can
// write a snapshot as a build with a narrower Ls′ would.
var LayoutOf = &layoutOf
