"""SC88 assembler toolchain.

A full two-pass macro assembler and linker for the SC88 ISA, supporting the
directive set the ADVM paper's code examples rely on: ``.INCLUDE`` (the
test layer pulls in ``Globals.inc``), ``NAME .EQU expr`` (global defines),
``.DEFINE CallAddr A12`` (register aliases), conditional assembly keyed on
injected predefines (derivative/target selection) and macros.

Typical use::

    asm = Assembler(include_paths=["Abstraction_Layer"],
                    predefines={"DERIVATIVE_SC88A": 1})
    obj = asm.assemble_file("TEST_NVM_PAGE/test.asm")
    image = Linker(text_base=0x100, data_base=0x10000000).link(
        [obj, base_functions_obj, embedded_software_obj])

Each public name resolves on first use (PEP 562) and imports only
the submodule defining it: a run that links or keys cached verdicts
never loads the assembler proper.
"""

from repro import lazy_exports

#: Public name -> the submodule that defines it (``__all__`` order).
_ORIGINS = {
    "Assembler": "assembler",
    "AssemblerError": "errors",
    "Diagnostics": "errors",
    "DirectiveError": "errors",
    "EncodingError": "errors",
    "ExpressionError": "errors",
    "FileProvider": "preprocessor",
    "FilesystemProvider": "preprocessor",
    "IncludeError": "errors",
    "InMemoryProvider": "preprocessor",
    "LexError": "errors",
    "LinkError": "errors",
    "Linker": "linker",
    "ListingRecord": "assembler",
    "MemoryImage": "linker",
    "ObjectFile": "objectfile",
    "ParseError": "errors",
    "PlacedSection": "linker",
    "Region": "linker",
    "Relocation": "objectfile",
    "Section": "objectfile",
    "SourceLocation": "errors",
    "SourceStream": "preprocessor",
    "Symbol": "objectfile",
    "SymbolError": "errors",
    "Token": "lexer",
    "TokenKind": "lexer",
    "disassemble_range": "listing",
    "disassemble_word": "listing",
    "render_listing": "listing",
    "tokenize_line": "lexer",
}

__all__ = list(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
