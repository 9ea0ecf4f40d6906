"""Copy-on-write B+Tree over bytes keys/values.

Nodes are immutable once a version is published: every mutation path-copies
from the touched leaf up to the root and returns a new root (exactly LMDB's
shadow-paging scheme, minus the on-disk page format).  Old roots remain
valid snapshots for as long as a reader holds them.

A write transaction may hand :meth:`BTree.put` the set of nodes it owns
(LMDB's dirty pages): a put then copies each node on its path once, adds the
copy to the set, and writes the nodes already in it in place.  No published
version can reach an owned node.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

__all__ = ["BTree", "ORDER"]

#: max keys per node before a split (LMDB pages hold dozens of entries;
#: 32 keeps trees shallow without huge copy costs).
ORDER = 32


class _Leaf:
    __slots__ = ("keys", "values")

    def __init__(self, keys: List[bytes], values: List[bytes]):
        self.keys = keys
        self.values = values

    is_leaf = True


class _Branch:
    __slots__ = ("keys", "children")

    def __init__(self, keys: List[bytes], children: List):
        self.keys = keys       # len(children) - 1 separators
        self.children = children

    is_leaf = False


class BTree:
    """A tree version; mutation methods return a new BTree (and ``put``,
    given a write transaction's ``dirty`` set, writes the nodes in it in
    place)."""

    __slots__ = ("root", "size", "depth")

    def __init__(self, root=None, size: int = 0, depth: int = 1):
        self.root = root if root is not None else _Leaf([], [])
        self.size = size
        self.depth = depth

    # -- reads ----------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        node = self.root
        while not node.is_leaf:
            node = node.children[bisect.bisect_right(node.keys, key)]
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            return node.values[i]
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def items(self, lo: Optional[bytes] = None,
              hi: Optional[bytes] = None) -> Iterator[Tuple[bytes, bytes]]:
        """In-order (key, value) pairs with optional [lo, hi) bounds."""
        node = self.root
        # Iterative in-order walk descending towards lo first.
        path = []
        while not node.is_leaf:
            idx = 0 if lo is None else bisect.bisect_right(node.keys, lo)
            path.append((node, idx))
            node = node.children[idx]
        start = 0 if lo is None else bisect.bisect_left(node.keys, lo)
        while True:
            for i in range(start, len(node.keys)):
                k = node.keys[i]
                if hi is not None and k >= hi:
                    return
                yield k, node.values[i]
            start = 0
            # climb to the next leaf
            while path:
                parent, idx = path.pop()
                if idx + 1 < len(parent.children):
                    path.append((parent, idx + 1))
                    node = parent.children[idx + 1]
                    while not node.is_leaf:
                        path.append((node, 0))
                        node = node.children[0]
                    break
            else:
                return

    # -- writes ---------------------------------------------------------------
    def put(self, key: bytes, value: bytes,
            dirty: Optional[set] = None) -> "BTree":
        """The tree with ``key`` set to ``value``: persistent (this version
        unchanged), or, given ``dirty``, writing the nodes in it in place
        and adding every node it copies to it.  Either way the shape --
        separators, keys per node, depth -- is the same."""
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("keys and values must be bytes")
        if dirty is None:
            root, split, grew = _insert(self.root, key, value)
        else:
            root, split, grew = _insert_owned(self.root, key, value, dirty)
        depth = self.depth
        if split is not None:
            sep, right = split
            root = _Branch([sep], [root, right])
            if dirty is not None:
                dirty.add(root)
            depth += 1
        return BTree(root, self.size + (1 if grew else 0), depth)

    def delete(self, key: bytes) -> "BTree":
        """Remove ``key``; returns self unchanged if absent.

        Underfull nodes are tolerated (no rebalancing on delete) -- the same
        pragmatic choice LMDB makes for freshly deleted pages; lookups stay
        correct and depth never grows.
        """
        root, removed = _delete(self.root, key)
        if not removed:
            return self
        # Collapse a root branch with a single child.
        depth = self.depth
        while not root.is_leaf and len(root.children) == 1:
            root = root.children[0]
            depth -= 1
        return BTree(root, self.size - 1, depth)


def _insert(node, key: bytes, value: bytes):
    """Returns (new_node, optional (separator, right_sibling), grew)."""
    if node.is_leaf:
        i = bisect.bisect_left(node.keys, key)
        keys = list(node.keys)
        values = list(node.values)
        if i < len(keys) and keys[i] == key:
            values[i] = value
            return _Leaf(keys, values), None, False
        keys.insert(i, key)
        values.insert(i, value)
        if len(keys) <= ORDER:
            return _Leaf(keys, values), None, True
        mid = len(keys) // 2
        left = _Leaf(keys[:mid], values[:mid])
        right = _Leaf(keys[mid:], values[mid:])
        return left, (right.keys[0], right), True
    i = bisect.bisect_right(node.keys, key)
    child, split, grew = _insert(node.children[i], key, value)
    keys = list(node.keys)
    children = list(node.children)
    children[i] = child
    if split is not None:
        sep, right = split
        keys.insert(i, sep)
        children.insert(i + 1, right)
        if len(keys) > ORDER:
            mid = len(keys) // 2
            sep_up = keys[mid]
            left = _Branch(keys[:mid], children[:mid + 1])
            right_b = _Branch(keys[mid + 1:], children[mid + 1:])
            return left, (sep_up, right_b), grew
    return _Branch(keys, children), None, grew


def _insert_owned(node, key: bytes, value: bytes, dirty: set):
    """:func:`_insert` for a write transaction: a node in ``dirty`` is
    written in place, any other is copied once and joins it.  A split keeps
    the left half in the node; both halves get exact-size lists."""
    if node.is_leaf:
        if node in dirty:
            keys, values = node.keys, node.values
        else:
            keys, values = list(node.keys), list(node.values)
            node = _Leaf(keys, values)
            dirty.add(node)
        i = bisect.bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            values[i] = value
            return node, None, False
        keys.insert(i, key)
        values.insert(i, value)
        if len(keys) <= ORDER:
            return node, None, True
        mid = len(keys) // 2
        right = _Leaf(keys[mid:], values[mid:])
        node.keys, node.values = keys[:mid], values[:mid]
        dirty.add(right)
        return node, (right.keys[0], right), True
    if node in dirty:
        keys, children = node.keys, node.children
    else:
        keys, children = list(node.keys), list(node.children)
        node = _Branch(keys, children)
        dirty.add(node)
    i = bisect.bisect_right(keys, key)
    child, split, grew = _insert_owned(children[i], key, value, dirty)
    children[i] = child
    if split is not None:
        sep, right = split
        keys.insert(i, sep)
        children.insert(i + 1, right)
        if len(keys) > ORDER:
            mid = len(keys) // 2
            sep_up = keys[mid]
            right_b = _Branch(keys[mid + 1:], children[mid + 1:])
            node.keys, node.children = keys[:mid], children[:mid + 1]
            dirty.add(right_b)
            return node, (sep_up, right_b), grew
    return node, None, grew


def _delete(node, key: bytes):
    if node.is_leaf:
        i = bisect.bisect_left(node.keys, key)
        if i >= len(node.keys) or node.keys[i] != key:
            return node, False
        keys = list(node.keys)
        values = list(node.values)
        del keys[i], values[i]
        return _Leaf(keys, values), True
    i = bisect.bisect_right(node.keys, key)
    child, removed = _delete(node.children[i], key)
    if not removed:
        return node, False
    keys = list(node.keys)
    children = list(node.children)
    children[i] = child
    # Drop a now-empty leaf child entirely.
    if child.is_leaf and not child.keys and len(children) > 1:
        del children[i]
        del keys[max(0, i - 1)]
    return _Branch(keys, children), True
