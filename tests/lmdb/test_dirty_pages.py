"""A write txn's dirty pages: copied once, then written in place.

A model test against a dict over mixed put/delete transactions, some
aborted, some overflowing the map: every reader snapshot and every cursor
opened inside a write txn keeps what it saw; a put that raises
``MapFullError`` leaves the txn usable and unchanged; and the tree the txn
builds has the shape -- separators, keys per leaf, depth -- of the
persistent ``BTree.put`` / ``BTree.delete`` over the same operations, which
is what keeps the backend's depth-priced costs where they were.
"""

from hypothesis import given, settings, strategies as st

from repro.lmdb import BTree, Environment, MapFullError


def shape(tree: BTree):
    def node(n):
        if n.is_leaf:
            return ("leaf", tuple(n.keys), tuple(n.values))
        return ("branch", tuple(n.keys), tuple(node(c) for c in n.children))
    return tree.depth, tree.size, node(tree.root)


def content(tree: BTree) -> dict:
    return dict(tree.items())


_KEY = st.integers(0, 1500).map(lambda i: b"k%04d" % i)
_VALUE = st.binary(min_size=1, max_size=6)
_OP = st.one_of(
    st.tuples(st.just("put"), _KEY, _VALUE),
    st.tuples(st.just("delete"), _KEY, st.none()),
    # a run of puts at consecutive keys: enough of them to split branches
    # (depth 3 takes more than 33 leaves)
    st.tuples(st.just("fill"), _KEY, st.integers(1, 400)),
    st.tuples(st.just("cursor"), st.none(), st.none()),
)
_TXN = st.tuples(st.lists(_OP, max_size=12), st.booleans())


def _expand(op):
    kind, key, arg = op
    if kind != "fill":
        return [(kind, key, arg)]
    start = int(key[1:])
    return [("put", b"k%04d" % i, b"v%d" % i)
            for i in range(start, start + arg)]


@settings(max_examples=60, deadline=None)
@given(st.lists(_TXN, min_size=1, max_size=8),
       st.one_of(st.none(), st.integers(200, 20000)))
def test_in_place_writes_match_the_persistent_tree(txns, map_size):
    env = Environment(map_size=map_size or 1 << 30)
    env.open_db("main")
    model: dict = {}
    persistent = BTree()            # the same ops through the persistent API
    snapshots = []                  # (read txn, content, shape) kept open
    for ops, commit in txns:
        if len(snapshots) < env.max_readers:
            reader = env.begin()
            tree = reader._tree("main")
            snapshots.append((reader, content(tree), shape(tree)))
        txn = env.begin(write=True)
        staged_model = dict(model)
        staged = persistent
        cursors = []                # (cursor, what it saw when opened)
        for op in ops:
            if op[0] == "cursor":
                cursors.append((txn.cursor(), dict(staged_model)))
                continue
            for kind, key, value in _expand(op):
                try:
                    if kind == "put":
                        txn.put(key, value)
                    else:
                        assert txn.delete(key) == (key in staged_model)
                except MapFullError:
                    # the txn is as it was before the put, and usable
                    assert kind == "put"
                    break
                if kind == "put":
                    staged_model[key] = value
                    staged = staged.put(key, value)
                else:
                    staged_model.pop(key, None)
                    staged = staged.delete(key)
            assert shape(txn._tree("main")) == shape(staged)
        for cursor, seen in cursors:
            assert dict(iter(cursor)) == seen
        if commit:
            txn.commit()
            model, persistent = staged_model, staged
        else:
            txn.abort()
        published = env._db("main").tree
        assert content(published) == model
        assert shape(published) == shape(persistent)
        for reader, seen, seen_shape in snapshots:
            tree = reader._tree("main")
            assert content(tree) == seen and shape(tree) == seen_shape
    assert env._data_bytes == sum(len(k) + len(v) for k, v in model.items())


def test_a_txn_copies_a_node_once_from_its_second_put_on():
    env = Environment()
    env.open_db("main")
    with env.begin(write=True) as txn:
        txn.put(b"a", b"1")
        first = txn._tree("main").root
        assert txn._dirty is None           # a one-put txn keeps no set
        txn.put(b"b", b"2")
        root = txn._tree("main").root
        assert root is not first            # copied, now owned
        txn.put(b"c", b"3")
        assert txn._tree("main").root is root      # written in place
        txn.cursor()
        txn.put(b"d", b"4")
        assert txn._tree("main").root is not root  # the cursor's is kept
    published = env._db("main").tree.root
    with env.begin(write=True) as txn:
        txn.put(b"e", b"5")
        txn.put(b"f", b"6")
        assert txn._tree("main").root is not published
    assert published.keys == [b"a", b"b", b"c", b"d"]
    assert first.keys == [b"a"] and root.keys == [b"a", b"b", b"c"]
