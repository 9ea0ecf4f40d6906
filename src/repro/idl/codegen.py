"""Python code generation from the hint-extended IDL AST.

For every service the generator emits (mirroring Apache Thrift's Python
target, Section 4.2 of the paper):

* ``<Fn>_args`` / ``<Fn>_result`` structs with read/write methods,
* ``<Service>Iface`` -- the handler interface,
* ``<Service>Client`` -- coroutine method stubs over a TClient,
* ``<Service>Processor`` -- the server dispatch table,
* plus module-level enums, consts, typedef comments, struct/exception
  classes, and the hierarchical ``SERVICE_HINTS`` map the HatRPC runtime
  consumes.

Every struct (``<Fn>_args`` and ``<Fn>_result`` included) has one codec,
compiled for its field list over the binary wire format of every HatRPC
channel: ``_write_<S>(s, ap)`` appends the encoded struct to the
transport's gather list (field headers are constants, a run of fixed-width
fields is one ``struct.Struct`` pack, a ``binary`` value is its packed
length plus the value itself, by reference) and ``_read_<S>(s, buf, pos)``
walks the landed message with ``unpack_from``.  The compiled decoder
handles fields in declaration order; at the first field it does not
expect, and at anything malformed, it hands the rest of the struct to
:func:`repro.thrift.protocol.binary.read_fields`, the one field loop,
driven by the struct's ``_SPEC_<S>`` table (emitted at the end of the
module, so the struct classes it names exist): unknown fields are skipped
by the one ``skip``, and malformed input raises what that loop raises.

``compile_idl`` returns the module source; ``load_idl`` execs it into a
fresh module object so tests and applications can use generated code without
touching disk.
"""

from __future__ import annotations

import types
from struct import calcsize
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.idl.nodes import (
    Document,
    Field,
    FunctionNode,
    ServiceNode,
    StructNode,
    TypeRef,
)
from repro.idl.parser import parse
from repro.idl.validator import validate_document
from repro.thrift.ttypes import TType

__all__ = ["compile_idl", "generate_python", "load_idl"]

_BASE_TTYPE = {
    "bool": "TType.BOOL",
    "byte": "TType.BYTE",
    "i8": "TType.BYTE",
    "i16": "TType.I16",
    "i32": "TType.I32",
    "i64": "TType.I64",
    "double": "TType.DOUBLE",
    "string": "TType.STRING",
    "binary": "TType.STRING",
    "list": "TType.LIST",
    "set": "TType.SET",
    "map": "TType.MAP",
}


class CodegenError(ValueError):
    pass


class _TypeEnv:
    """Typedef/enum/struct name resolution for the generator."""

    def __init__(self, doc: Document):
        self.typedefs = {t.name: t.type for t in doc.typedefs}
        self.enums = {e.name for e in doc.enums}
        self.structs = {s.name: s for s in doc.structs}

    def resolve(self, tref: TypeRef) -> TypeRef:
        seen = set()
        while tref.name in self.typedefs:
            if tref.name in seen:
                raise CodegenError(f"typedef cycle at {tref.name!r}")
            seen.add(tref.name)
            tref = self.typedefs[tref.name]
        return tref

    def ttype_expr(self, tref: TypeRef) -> str:
        tref = self.resolve(tref)
        if tref.name in _BASE_TTYPE:
            return _BASE_TTYPE[tref.name]
        if tref.name in self.enums:
            return "TType.I32"
        if tref.name in self.structs:
            return "TType.STRUCT"
        raise CodegenError(f"unknown type {tref.name!r}")

    def ttype_value(self, tref: TypeRef) -> int:
        return getattr(TType, self.ttype_expr(tref).split(".")[1])


class _Emitter:
    def __init__(self):
        self.lines: List[str] = []

    def emit(self, line: str = "", indent: int = 0):
        self.lines.append("    " * indent + line if line else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# The compiled TBinaryProtocol codec
# ---------------------------------------------------------------------------

#: fixed-width scalar -> its ``struct`` format character (enums are "i")
_FIXED = {"bool": "?", "byte": "b", "i8": "b", "i16": "h", "i32": "i",
          "i64": "q", "double": "d"}

#: a field's encoding: format of its packed prefix (header included), the
#: argument expressions of that prefix, statements that must run before the
#: pack, and the emitter of what follows the prefix (payload, elements,
#: nested struct), if anything does
_Part = Tuple[str, List[str], List[str], Optional[Callable[[int], None]]]


class _BinaryCodec:
    """Emits each struct's ``_write_<S>(s, ap)`` and ``_read_<S>(s, buf,
    pos)``, and the one ``struct.Struct`` per format they share.

    ``_write_<S>`` appends the struct, STOP included, with ``ap`` (the
    transport's gather-list ``append``).  Fields are written in declaration
    order; a *segment* -- fixed-width fields up to and including the next
    field that is not -- is one pack of every header and value (and the
    last field's length or container header) when all of its fields are
    set, and one pack per set field otherwise.

    ``_read_<S>`` decodes the fields at ``buf[pos:]`` in declaration order,
    each optional, then STOP, and returns the offset past the STOP.  On
    anything else -- a field out of order or unknown, a short buffer, a
    negative size, bad UTF-8 -- it returns ``~start`` of the field it could
    not take, and the struct's ``read`` hands the rest to ``read_fields``
    with the struct's ``_SPEC_<S>``.
    """

    def __init__(self, env: _TypeEnv, out: _Emitter):
        self.env = env
        self.out = out
        self.packers: Dict[str, str] = {}       # format -> module-level name
        self.specs: List[str] = []              # one _SPEC_<S> line per struct

    def packer(self, fmt: str) -> str:
        name = self.packers.get(fmt)
        if name is None:
            name = self.packers[fmt] = "_S_" + fmt.replace("?", "t")
        return name

    def fixed(self, tref: TypeRef) -> Optional[str]:
        tref = self.env.resolve(tref)
        return "i" if tref.name in self.env.enums else _FIXED.get(tref.name)

    def header(self, f: Field) -> str:
        """The field header -- type byte, big-endian i16 id -- as a literal."""
        try:
            fid = f.fid.to_bytes(2, "big", signed=True)
        except OverflowError:
            raise CodegenError(f"field id {f.fid} of {f.name!r} is outside "
                               "the i16 range") from None
        return repr(bytes([self.env.ttype_value(f.type)]) + fid)

    def table(self) -> List[str]:
        return [f"{name} = Struct('!{fmt}')"
                for fmt, name in sorted(self.packers.items(),
                                        key=lambda kv: kv[1])]

    # -- encoder ---------------------------------------------------------------
    def emit_writer(self, node: StructNode) -> None:
        out = self.out
        out.emit(f"def _write_{node.name}(s, ap):")
        segment: List[Tuple[int, Field]] = []
        for i, f in enumerate(node.fields):
            segment.append((i, f))
            if self.fixed(f.type) is None:
                self._write_segment(node, segment)
                segment = []
        if segment:
            self._write_segment(node, segment)
        out.emit("ap(b'\\x00')  # STOP", 1)
        out.emit()
        out.emit()

    def _write_segment(self, node: StructNode,
                       segment: List[Tuple[int, Field]]) -> None:
        out = self.out
        for i, f in segment:
            out.emit(f"f{i} = s.{f.name}", 1)
            if f.required == "required":
                out.emit(f"if f{i} is None:", 1)
                out.emit(f"raise TProtocolException("
                         f"TProtocolException.INVALID_DATA, "
                         f"'required field {node.name}.{f.name} is unset')", 2)
        parts = [self._field_part(i, f) for i, f in segment]
        ind = 1
        if len(parts) > 1:
            out.emit("if " + " and ".join(f"f{i} is not None"
                                          for i, _ in segment) + ":", 1)
            self._emit_parts(parts, 2)
            out.emit("else:", 1)
            ind = 2
        for (i, _), part in zip(segment, parts):
            out.emit(f"if f{i} is not None:", ind)
            self._emit_parts([part], ind + 1)

    def _emit_parts(self, parts: List[_Part], ind: int) -> None:
        out = self.out
        for _fmt, _args, pre, _tail in parts:
            for line in pre:
                out.emit(line, ind)
        fmt = "".join(p[0] for p in parts)
        args = [a for p in parts for a in p[1]]
        if fmt == "3s":             # a nested struct's header alone
            out.emit(f"ap({args[0]})", ind)
        elif fmt:                   # (a nested struct value has no prefix)
            out.emit(f"ap({self.packer(fmt)}.pack({', '.join(args)}))", ind)
        for *_, tail in parts:
            if tail is not None:
                tail(ind)

    def _field_part(self, i: int, f: Field) -> _Part:
        var = f"f{i}"
        fmt, args, pre, tail = self._value_part(f.type, var, 0)
        return "3s" + fmt, [self.header(f)] + args, pre, tail

    def _value_part(self, tref: TypeRef, var: str, depth: int) -> _Part:
        """How a value of ``tref`` held in ``var`` is written: its packed
        prefix (the whole value for a fixed-width one) and what follows."""
        env, out = self.env, self.out
        tref = env.resolve(tref)
        name = tref.name
        c = self.fixed(tref)
        if c is not None:
            return c, [var], [], None
        if name == "binary":
            # by reference; a mutable buffer is snapshotted as
            # TTransport.write would, and the length is that of the bytes
            # written (``len`` of a multi-byte memoryview counts items)
            return ("i", [f"len({var}_b)"],
                    [f"{var}_b = {var} if {var}.__class__ is bytes "
                     f"else bytes({var})"],
                    lambda ind: out.emit(f"ap({var}_b)", ind))
        if name == "string":
            return ("i", [f"len({var}_u)"], [f"{var}_u = {var}.encode('utf-8')"],
                    lambda ind: out.emit(f"ap({var}_u)", ind))
        if name in ("list", "set"):
            elem = tref.args[0]
            return ("bi", [str(env.ttype_value(elem)), f"len({var})"], [],
                    lambda ind: self._write_elements(elem, var, ind, depth))
        if name == "map":
            k, v = tref.args
            return ("bbi", [str(env.ttype_value(k)), str(env.ttype_value(v)),
                            f"len({var})"], [],
                    lambda ind: self._write_items(k, v, var, ind, depth))
        if name in env.structs:
            return "", [], [], lambda ind: out.emit(
                f"_write_{name}({var}, ap)", ind)
        raise CodegenError(f"cannot write type {name!r}")

    def _write_elements(self, elem: TypeRef, var: str, ind: int,
                        depth: int) -> None:
        c = self.fixed(elem)
        if c is not None:
            # the whole list in one pack
            self.out.emit(f"ap(_pack('!%d{c}' % len({var}), *{var}))", ind)
            return
        ev = f"_e{depth}"
        self.out.emit(f"for {ev} in {var}:", ind)
        self._emit_parts([self._value_part(elem, ev, depth + 1)], ind + 1)

    def _write_items(self, k: TypeRef, v: TypeRef, var: str, ind: int,
                     depth: int) -> None:
        kv, vv = f"_k{depth}", f"_v{depth}"
        self.out.emit(f"for {kv}, {vv} in {var}.items():", ind)
        self._emit_parts([self._value_part(k, kv, depth + 1)], ind + 1)
        self._emit_parts([self._value_part(v, vv, depth + 1)], ind + 1)

    # -- decoder ---------------------------------------------------------------
    def emit_reader(self, node: StructNode) -> None:
        self.specs.append(self._spec(node))
        out = self.out
        out.emit(f"def _read_{node.name}(s, buf, pos):")
        out.emit("try:", 1)
        for f in node.fields:
            out.emit(f"if buf.startswith({self.header(f)}, pos):", 2)
            c = self.fixed(f.type)
            if c is not None:
                out.emit(f"(s.{f.name},) = {self.packer(c)}.unpack_from("
                         f"buf, pos + 3)", 3)
                out.emit(f"pos += {3 + calcsize('!' + c)}", 3)
                continue
            out.emit("p = pos + 3", 3)
            self._decode(f.type, "v", 3, 0)
            out.emit(f"s.{f.name} = v", 3)
            out.emit("pos = p", 3)
        out.emit("if buf[pos] == 0:  # STOP", 2)
        out.emit("return pos + 1", 3)
        out.emit("except (_StructError, IndexError, UnicodeDecodeError):", 1)
        out.emit("pass", 2)
        out.emit("return ~pos", 1)
        out.emit()
        out.emit()

    def _decode(self, tref: TypeRef, target: str, ind: int,
                depth: int) -> None:
        """Read the value at ``buf[p:]`` into ``target``, advancing ``p``;
        ``return ~pos`` (give the field up) on a size that does not fit."""
        env, out = self.env, self.out
        tref = env.resolve(tref)
        name = tref.name
        n = f"_n{depth}"
        c = self.fixed(tref)
        if c is not None:
            out.emit(f"({target},) = {self.packer(c)}.unpack_from(buf, p)", ind)
            out.emit(f"p += {calcsize('!' + c)}", ind)
        elif name in ("binary", "string"):
            out.emit(f"({n},) = {self.packer('i')}.unpack_from(buf, p)", ind)
            out.emit(f"{target} = buf[p + 4:p + 4 + {n}]", ind)
            out.emit(f"if len({target}) != {n}:  # short, or negative", ind)
            out.emit("return ~pos", ind + 1)
            if name == "string":
                out.emit(f"{target} = {target}.decode('utf-8')", ind)
            out.emit(f"p += 4 + {n}", ind)
        elif name in ("list", "set"):
            elem = tref.args[0]
            # the element type byte is not checked, as read_fields does not
            out.emit(f"({n},) = {self.packer('i')}.unpack_from(buf, p + 1)",
                     ind)
            out.emit(f"if {n} < 0:", ind)
            out.emit("return ~pos", ind + 1)
            out.emit("p += 5", ind)
            ec = self.fixed(elem)
            make = "list" if name == "list" else "set"
            if ec is not None:
                out.emit(f"{target} = {make}(_unpack_from('!%d{ec}' % {n}, "
                         f"buf, p))", ind)
                out.emit(f"p += {n} * {calcsize('!' + ec)}", ind)
                return
            ev = f"_e{depth}"
            out.emit(f"{target} = {'[]' if name == 'list' else 'set()'}", ind)
            out.emit(f"for _ in range({n}):", ind)
            self._decode(elem, ev, ind + 1, depth + 1)
            add = "append" if name == "list" else "add"
            out.emit(f"{target}.{add}({ev})", ind + 1)
        elif name == "map":
            k, v = tref.args
            kv, vv = f"_k{depth}", f"_v{depth}"
            out.emit(f"({n},) = {self.packer('i')}.unpack_from(buf, p + 2)",
                     ind)
            out.emit(f"if {n} < 0:", ind)
            out.emit("return ~pos", ind + 1)
            out.emit("p += 6", ind)
            out.emit(f"{target} = {{}}", ind)
            out.emit(f"for _ in range({n}):", ind)
            self._decode(k, kv, ind + 1, depth + 1)
            self._decode(v, vv, ind + 1, depth + 1)
            out.emit(f"{target}[{kv}] = {vv}", ind + 1)
        elif name in env.structs:
            out.emit(f"{target} = {name}()", ind)
            out.emit(f"p = _read_{name}({target}, buf, p)", ind)
            out.emit("if p < 0:", ind)
            out.emit("return ~pos", ind + 1)
        else:
            raise CodegenError(f"cannot read type {name!r}")


    def _spec(self, node: StructNode) -> str:
        """``_SPEC_<S> = {(field id, wire type): (attribute, value type)}``,
        what ``read_fields`` reads the struct by (the first field declared
        with a pair takes it)."""
        spec: Dict[Tuple[int, str], str] = {}
        for f in node.fields:
            spec.setdefault((f.fid, self.env.ttype_expr(f.type)),
                            f"({f.name!r}, {self._spec_type(f.type)})")
        entries = ", ".join(f"({fid}, {tt}): {v}"
                            for (fid, tt), v in spec.items())
        return f"_SPEC_{node.name} = {{{entries}}}"

    def _spec_type(self, tref: TypeRef) -> str:
        """A read-method suffix, ``(kind, *argument types)`` or a class."""
        tref = self.env.resolve(tref)
        name = tref.name
        if tref.is_container:
            args = [repr(name)] + [self._spec_type(a) for a in tref.args]
            return f"({', '.join(args)})"
        if name in self.env.structs:
            return name
        return repr("i32" if name in self.env.enums else
                    "byte" if name == "i8" else name)


def _emit_struct(node: StructNode, out: _Emitter,
                 codec: _BinaryCodec) -> None:
    base = "TException" if node.kind == "exception" else "object"
    out.emit(f"class {node.name}({base}):")
    out.emit(f'    """IDL {node.kind} {node.name}."""')
    out.emit()
    params = ", ".join(f"{f.name}={f.default!r}" for f in node.fields)
    out.emit(f"    def __init__(self{', ' + params if params else ''}):")
    if node.kind == "exception":
        out.emit("        TException.__init__(self)")
    if not node.fields:
        out.emit("        pass")
    for f in node.fields:
        out.emit(f"        self.{f.name} = {f.name}")
    out.emit()
    out.emit("    def write(self, prot):")
    out.emit(f"        _write_{node.name}(self, prot.trans.wchunks.append)")
    out.emit()
    out.emit("    def read(self, prot):")
    out.emit("        trans = prot.trans")
    out.emit(f"        end = _read_{node.name}(self, trans.rbuf, trans.rpos)")
    out.emit("        if end < 0:  # the field loop reads on from there")
    out.emit("            trans.rpos = ~end")
    out.emit(f"            return read_fields(prot, self, _SPEC_{node.name})")
    out.emit("        trans.rpos = end")
    out.emit("        return self")
    out.emit()
    # -- dunder helpers --
    names = [f.name for f in node.fields]
    out.emit("    def __eq__(self, other):")
    out.emit("        return other.__class__ is self.__class__ and "
             "self.__dict__ == other.__dict__")
    out.emit()
    out.emit("    def __repr__(self):")
    fields_fmt = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    out.emit(f"        return f{('%s(%s)' % (node.name, fields_fmt))!r}")
    out.emit()
    out.emit()
    codec.emit_writer(node)
    codec.emit_reader(node)


def _args_struct(fn: FunctionNode) -> StructNode:
    return StructNode(f"{fn.name}_args", list(fn.args))


def _result_struct(env: _TypeEnv, fn: FunctionNode) -> StructNode:
    fields = []
    if fn.return_type.name != "void":
        fields.append(Field(0, "success", fn.return_type))
    fields.extend(fn.throws)
    return StructNode(f"{fn.name}_result", fields)


def _emit_client(doc_env: _TypeEnv, service: ServiceNode, out: _Emitter,
                 parent: Optional[ServiceNode]) -> None:
    base = f"{parent.name}Client" if parent else "TClient"
    out.emit(f"class {service.name}Client({base}):")
    out.emit(f'    """Generated client for service {service.name}."""')
    out.emit()
    if not service.functions:
        out.emit("    pass")
    for fn in service.functions:
        argnames = ", ".join(f.name for f in fn.args)
        sig = f"self{', ' + argnames if argnames else ''}"
        out.emit(f"    def {fn.name}({sig}):")
        kwargs = ", ".join(f"{f.name}={f.name}" for f in fn.args)
        if fn.oneway:
            out.emit(f"        yield from self._send({fn.name!r}, "
                     f"{fn.name}_args({kwargs}), TMessageType.ONEWAY)")
            out.emit("        return None")
            out.emit()
            continue
        out.emit(f"        yield from self._send({fn.name!r}, "
                 f"{fn.name}_args({kwargs}))")
        out.emit(f"        _r = yield from self._recv({fn.name!r}, "
                 f"{fn.name}_result())")
        if fn.return_type.name != "void":
            out.emit("        if _r.success is not None:")
            out.emit("            return _r.success")
        for t in fn.throws:
            out.emit(f"        if _r.{t.name} is not None:")
            out.emit(f"            raise _r.{t.name}")
        if fn.return_type.name != "void":
            out.emit(f"        raise TApplicationException("
                     f"TApplicationException.MISSING_RESULT, "
                     f"'{fn.name} failed: unknown result')")
        else:
            out.emit("        return None")
        out.emit()
    out.emit()


def _emit_iface(service: ServiceNode, out: _Emitter,
                parent: Optional[ServiceNode]) -> None:
    base = f"{parent.name}Iface" if parent else "object"
    out.emit(f"class {service.name}Iface({base}):")
    out.emit(f'    """Handler interface for service {service.name}."""')
    out.emit()
    if not service.functions:
        out.emit("    pass")
    for fn in service.functions:
        argnames = ", ".join(f.name for f in fn.args)
        sig = f"self{', ' + argnames if argnames else ''}"
        out.emit(f"    def {fn.name}({sig}):")
        out.emit(f"        raise NotImplementedError({fn.name!r})")
        out.emit()
    out.emit()


def _emit_processor(service: ServiceNode, out: _Emitter,
                    parent: Optional[ServiceNode]) -> None:
    base = f"{parent.name}Processor" if parent else "TProcessor"
    out.emit(f"class {service.name}Processor({base}):")
    out.emit(f'    """Generated processor for service {service.name}."""')
    out.emit()
    out.emit("    def __init__(self, handler):")
    out.emit("        super().__init__(handler)")
    for fn in service.functions:
        out.emit(f"        self._process_map[{fn.name!r}] = "
                 f"self._process_{fn.name}")
    out.emit()
    for fn in service.functions:
        out.emit(f"    def _process_{fn.name}(self, seqid, prot):")
        out.emit(f"        _args = {fn.name}_args()")
        out.emit("        _args.read(prot)")
        out.emit("        prot.read_message_end()")
        argpass = "".join(f", _args.{f.name}" for f in fn.args)
        if fn.oneway:
            out.emit("        try:")
            out.emit(f"            yield from self._invoke("
                     f"{fn.name!r}{argpass})")
            out.emit("        except Exception:")
            out.emit("            pass  # oneway: nowhere to report")
            out.emit("        return False")
            out.emit()
            continue
        out.emit(f"        _result = {fn.name}_result()")
        out.emit("        try:")
        if fn.return_type.name != "void":
            out.emit(f"            _result.success = yield from "
                     f"self._invoke({fn.name!r}{argpass})")
        else:
            out.emit(f"            yield from self._invoke("
                     f"{fn.name!r}{argpass})")
        for t in fn.throws:
            out.emit(f"        except {t.type.name} as _e:")
            out.emit(f"            _result.{t.name} = _e")
        out.emit("        except Exception as _e:")
        out.emit("            _exc = TApplicationException("
                 "TApplicationException.INTERNAL_ERROR, str(_e))")
        out.emit(f"            prot.write_message_begin({fn.name!r}, "
                 f"TMessageType.EXCEPTION, seqid)")
        out.emit("            _exc.write(prot)")
        out.emit("            prot.write_message_end()")
        out.emit("            return True")
        out.emit(f"        prot.write_message_begin({fn.name!r}, "
                 f"TMessageType.REPLY, seqid)")
        out.emit("        _result.write(prot)")
        out.emit("        prot.write_message_end()")
        out.emit("        return True")
        out.emit()
    out.emit()


def generate_python(doc: Document, strict_hints: bool = True,
                    module_doc: str = "") -> str:
    """Generate the Python module source for a parsed Document."""
    env = _TypeEnv(doc)
    hint_maps, warnings = validate_document(doc, strict=strict_hints)
    out = _Emitter()
    out.emit('"""Generated by the HatRPC IDL compiler (repro.idl). '
             'Do not edit."""')
    if module_doc:
        out.emit(f"# {module_doc}")
    for w in warnings:
        out.emit(f"# hint warning: {w}")
    out.emit()
    out.emit("from struct import Struct, error as _StructError, "
             "pack as _pack, unpack_from as _unpack_from")
    out.emit()
    out.emit("from repro.thrift import (TType, TMessageType, TClient, "
             "TProcessor,")
    out.emit("                          TApplicationException, "
             "TProtocolException)")
    out.emit("from repro.thrift.errors import TException")
    out.emit("from repro.thrift.protocol.binary import read_fields")
    out.emit()
    table_at = len(out.lines)
    out.emit()
    for enum in doc.enums:
        out.emit(f"class {enum.name}(object):")
        out.emit(f'    """IDL enum {enum.name}."""')
        out.emit()
        for name, value in enum.members:
            out.emit(f"    {name} = {value}")
        names_map = {v: n for n, v in enum.members}
        out.emit(f"    _VALUES_TO_NAMES = {names_map!r}")
        out.emit()
        out.emit()
    const_env: Dict[str, Any] = {}
    for const in doc.consts:
        out.emit(f"{const.name} = {const.value!r}")
        const_env[const.name] = const.value
    if doc.consts:
        out.emit()
        out.emit()
    codec = _BinaryCodec(env, out)
    for struct in doc.structs:
        _emit_struct(struct, out, codec)
    by_name = {s.name: s for s in doc.services}
    for service in doc.services:
        parent = None
        if service.extends:
            parent = by_name.get(service.extends)
            if parent is None:
                raise CodegenError(
                    f"service {service.name} extends unknown service "
                    f"{service.extends!r}")
        for fn in service.functions:
            _emit_struct(_args_struct(fn), out, codec)
            _emit_struct(_result_struct(env, fn), out, codec)
        _emit_iface(service, out, parent)
        _emit_client(env, service, out, parent)
        _emit_processor(service, out, parent)
    out.emit(f"SERVICE_HINTS = {hint_maps!r}")
    out.emit()
    service_names = [s.name for s in doc.services]
    out.emit(f"SERVICE_NAMES = {service_names!r}")
    out.emit()
    fn_names = {}
    for service in doc.services:
        names: List[str] = []
        cursor: Optional[ServiceNode] = service
        while cursor is not None:
            names = [f.name for f in cursor.functions] + names
            cursor = by_name.get(cursor.extends) if cursor.extends else None
        fn_names[service.name] = names
    out.emit(f"SERVICE_FUNCTIONS = {fn_names!r}")
    out.emit()
    oneway = {s.name: [f.name for f in s.functions if f.oneway]
              for s in doc.services}
    out.emit(f"SERVICE_ONEWAY = {oneway!r}")
    out.emit()
    # The field loop's tables, after every struct class they name.
    out.lines.extend(codec.specs)
    # The compiled codecs' packers, by format, ahead of their first use.
    out.lines[table_at:table_at] = codec.table() + [""]
    return out.source()


def compile_idl(source: str, filename: str = "<idl>",
                strict_hints: bool = True) -> str:
    """Parse + validate + generate in one step; returns module source."""
    return generate_python(parse(source, filename), strict_hints=strict_hints)


def load_idl(source: str, module_name: str = "hatrpc_generated",
             filename: str = "<idl>", strict_hints: bool = True):
    """Compile IDL source and exec it into a fresh module object."""
    code = compile_idl(source, filename, strict_hints=strict_hints)
    module = types.ModuleType(module_name)
    module.__dict__["__hatrpc_source__"] = code
    exec(compile(code, f"{module_name}.py", "exec"), module.__dict__)
    return module
