package exec

import "patchindex/internal/storage"

// Project narrows or reorders the child's columns. RowIDs pass through.
type Project struct {
	child  Operator
	cols   []int
	schema storage.Schema
	out    *Batch
}

// NewProject returns a projection of the child's columns at the given
// positions.
func NewProject(child Operator, cols []int) *Project {
	in := child.Schema()
	schema := make(storage.Schema, len(cols))
	for i, c := range cols {
		schema[i] = in[c]
	}
	return &Project{child: child, cols: cols, schema: schema}
}

// Schema implements Operator.
func (p *Project) Schema() storage.Schema { return p.schema }

// Next implements Operator.
func (p *Project) Next() (*Batch, error) {
	in, err := p.child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	if p.out == nil {
		p.out = &Batch{Schema: p.schema, Cols: make([]Vec, len(p.cols))}
	}
	for i, c := range p.cols {
		p.out.Cols[i] = in.Cols[c]
	}
	p.out.RowIDs = in.RowIDs
	return p.out, nil
}

// Close implements Operator.
func (p *Project) Close() {
	p.child.Close()
	p.out = nil
}

// RowIDProject reduces the child to a single int64 column holding its
// rowIDs — the "project rowIDs of both join sides" step of the insert
// handling query (Fig. 5).
type RowIDProject struct {
	child Operator
	name  string
	out   *Batch
}

// NewRowIDProject converts rowIDs into a BIGINT column named name.
func NewRowIDProject(child Operator, name string) *RowIDProject {
	return &RowIDProject{child: child, name: name}
}

// Schema implements Operator.
func (p *RowIDProject) Schema() storage.Schema {
	return storage.Schema{{Name: p.name, Kind: storage.KindInt64}}
}

// Next implements Operator.
func (p *RowIDProject) Next() (*Batch, error) {
	in, err := p.child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	if in.RowIDs == nil {
		panic("exec: RowIDProject requires rowIDs from its child")
	}
	if p.out == nil {
		p.out = NewBatch(p.Schema())
	}
	p.out.Reset()
	for _, rid := range in.RowIDs {
		p.out.Cols[0].I64 = append(p.out.Cols[0].I64, int64(rid))
	}
	return p.out, nil
}

// Close implements Operator.
func (p *RowIDProject) Close() {
	p.child.Close()
	p.out = nil
}

// Union concatenates the output of its children (UNION ALL). Children
// must share a schema. It is the combining operator of the PatchIndex
// distinct and join optimizations (Fig. 2).
type Union struct {
	children []Operator
	cur      int
}

// NewUnion returns the concatenation of the children.
func NewUnion(children ...Operator) *Union {
	if len(children) == 0 {
		panic("exec: Union needs at least one child")
	}
	return &Union{children: children}
}

// Schema implements Operator.
func (u *Union) Schema() storage.Schema { return u.children[0].Schema() }

// Next implements Operator.
func (u *Union) Next() (*Batch, error) {
	for u.cur < len(u.children) {
		b, err := u.children[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.cur++
	}
	return nil, nil
}

// Close implements Operator.
func (u *Union) Close() {
	for _, c := range u.children {
		c.Close()
	}
}

// Limit stops after n tuples.
type Limit struct {
	child Operator
	n     int
	seen  int
	out   *Batch
}

// NewLimit caps the child's output at n tuples.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{child: child, n: n}
}

// Schema implements Operator.
func (l *Limit) Schema() storage.Schema { return l.child.Schema() }

// Next implements Operator.
func (l *Limit) Next() (*Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	in, err := l.child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	if l.seen+in.Len() <= l.n {
		l.seen += in.Len()
		return in, nil
	}
	if l.out == nil {
		l.out = NewBatch(l.child.Schema())
	}
	l.out.Reset()
	l.out.AppendRange(in, 0, l.n-l.seen)
	l.seen = l.n
	return l.out, nil
}

// Close implements Operator.
func (l *Limit) Close() {
	l.child.Close()
	l.out = nil
}
