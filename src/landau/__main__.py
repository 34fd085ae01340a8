from .cli import main

main(prog_name="landau")
